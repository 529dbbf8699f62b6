// Package bench is the concurrent benchmark harness for the Dash-EH engine:
// it preloads a table, drives N goroutines through a deterministic workload
// (warmup phase, then a timed measurement phase), and reports throughput,
// per-op latency quantiles, PM traffic per operation, and the table's final
// shape — the axes the paper evaluates on (§6, Fig. 6–9).
package bench

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dash/internal/core"
	"dash/internal/pmem"
	"dash/internal/workload"
)

// Config describes one benchmark cell.
type Config struct {
	// Threads is the number of worker goroutines.
	Threads int
	// Ops is the total number of measured operations, split across threads.
	Ops int64
	// WarmupOps is the total number of unmeasured warmup operations run
	// before measurement; they heat caches and the cost-model clocks and
	// (for mutating mixes) push the table past its cold-start shape.
	WarmupOps int64
	// Keyspace is the number of preloaded records.
	Keyspace uint64
	// Theta is the Zipfian skew (0 = uniform); see workload.Config.
	Theta float64
	// Mix is the operation mix.
	Mix workload.Mix
	// Seed makes the run reproducible.
	Seed uint64
	// PoolSize overrides the PM pool size; 0 sizes it from Keyspace and the
	// mix's expected insert volume.
	PoolSize uint64
	// Model, when non-nil, is installed after preload so the measured phase
	// pays simulated Optane latencies and bandwidth limits. Preload runs
	// uncharged: it is setup, not workload.
	Model *pmem.CostModel
	// MeasureRecovery, when true, exercises both restart paths after the
	// measured phase: the crash path (image snapshotted while the table is
	// open, so Open must reconcile and recovery completes lazily) and the
	// clean-shutdown fast path (image snapshotted after Close persisted the
	// clean marker). It fills the Result's Recovery*NS fields — crucially
	// splitting time-to-first-op (RecoveryOpenNS) from
	// time-to-fully-recovered (RecoveryFullNS). The reopens run after every
	// measured metric is taken, on unmodeled pools, so they perturb nothing
	// and report raw engine time.
	MeasureRecovery bool
	// OnTable, when non-nil, is called with the live table right after it is
	// created, before preload — the hook dashbench uses to point its debug
	// endpoint (obs.Serve) at the cell currently running.
	OnTable func(*core.Table)
}

// Counts tallies operation outcomes across warmup + measurement. They let
// callers audit that no operation was lost: the final table count must equal
// Preloaded + InsertOK − DeleteOK exactly.
type Counts struct {
	Preloaded uint64
	InsertOK  int64 // successful fresh inserts
	InsertDup int64 // inserts rejected with ErrKeyExists (should be 0)
	// InsertOverflow counts inserts rejected with ErrSegmentOverflow (the
	// pathological one-sided split). They add no record, so the audit
	// formula ignores them — but they are counted and reported per cell
	// rather than aborting the run, so a cell that sheds load under a
	// skewed keyspace is visible instead of silently dropped.
	InsertOverflow int64
	// InsertTooLarge counts inserts rejected with ErrRecordTooLarge
	// (oversized key/value for the record log). Like overflows they add no
	// record and are reported rather than aborting the cell.
	InsertTooLarge int64
	ReadHit        int64
	ReadMiss       int64 // positive-read misses (deleted by a delete-bearing mix)
	NegHit         int64 // negative reads that found a key (should be 0)
	NegMiss        int64
	UpdateOK       int64
	UpdateNF       int64
	DeleteOK       int64
	DeleteNF       int64
}

// Result is the outcome of one benchmark cell.
type Result struct {
	Mix      string
	Threads  int
	Ops      int64
	Elapsed  time.Duration
	MopsPerS float64

	// Latency over the measured phase, nanoseconds.
	Hist   *Hist
	P50NS  int64
	P90NS  int64
	P99NS  int64
	P999NS int64
	MaxNS  int64
	MeanNS float64

	// PM is the raw traffic delta over the measured phase; the *PerOp fields
	// convert it to bytes (lines × cacheline size) per measured operation.
	// DeviceNSPerOp is the simulated device time the cost model charged per
	// op (PM.DeviceNS has it by category): MeanNS minus it is CPU time plus
	// the simulator's own overhead.
	PM                pmem.StatsSnapshot
	ReadBytesPerOp    float64
	WriteBytesPerOp   float64
	FlushedBytesPerOp float64
	FencesPerOp       float64
	DeviceNSPerOp     float64

	// Table is the shape after the run.
	Table core.TableStats

	// Recovery timings from re-opening the run's durable image
	// (Config.MeasureRecovery); all zero when measurement was off. The
	// crash-path reopen reports RecoveryOpenNS (core.Open wall: the
	// O(directory) work before the table serves traffic — time-to-first-op)
	// and RecoveryFullNS (Open through RecoverAll: every per-segment
	// first-touch recovery plus the record-log sweep — time-to-fully-
	// recovered); the phase fields break the crash recovery's work down.
	// RecoveryCleanOpenNS is the clean-shutdown fast path's Open wall.
	RecoveryOpenNS      int64
	RecoveryFullNS      int64
	RecoveryCleanOpenNS int64
	RecoveryTotalNS     int64
	RecoveryDirNS       int64
	RecoverySegmentsNS  int64
	RecoveryLogNS       int64
	RecoveryMirrorsNS   int64

	Counts Counts
}

// errStopped is the sentinel a worker returns when another worker failed.
var errStopped = errors.New("bench: stopped by peer failure")

// Run executes one benchmark cell: build pool and table, preload, warmup,
// measure. Every phase is deterministic in cfg.Seed except scheduling.
func Run(cfg Config) (*Result, error) {
	if cfg.Threads <= 0 {
		return nil, fmt.Errorf("bench: threads must be > 0")
	}
	if cfg.Ops <= 0 {
		return nil, fmt.Errorf("bench: ops must be > 0")
	}

	gen, err := workload.NewGenerator(workload.Config{
		Keyspace: cfg.Keyspace,
		Theta:    cfg.Theta,
		Mix:      cfg.Mix,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	pool, err := pmem.NewPool(pmem.Options{Size: cfg.poolSize()})
	if err != nil {
		return nil, err
	}
	tb, err := core.Create(pool, core.Options{Seed: cfg.Seed | 1})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	if cfg.OnTable != nil {
		cfg.OnTable(tb)
	}

	if vs := cfg.Mix.Var; vs != nil {
		var kbuf, vbuf []byte
		for i := uint64(0); i < cfg.Keyspace; i++ {
			k := workload.PreloadKey(i)
			kbuf = vs.AppendKey(kbuf[:0], k)
			vbuf = vs.AppendValue(vbuf[:0], k, 0)
			if err := tb.InsertB(kbuf, vbuf); err != nil {
				return nil, fmt.Errorf("bench: preload key %d: %w", i, err)
			}
		}
	} else {
		for i := uint64(0); i < cfg.Keyspace; i++ {
			if err := tb.Insert(workload.PreloadKey(i), i); err != nil {
				return nil, fmt.Errorf("bench: preload key %d: %w", i, err)
			}
		}
	}

	// The cost model joins after preload, so only workload traffic is charged.
	if cfg.Model != nil {
		pool.SetModel(cfg.Model)
		defer pool.SetModel(nil)
	}

	workers := make([]*worker, cfg.Threads)
	for w := range workers {
		workers[w] = &worker{table: tb, stream: gen.Stream(w), varSpec: cfg.Mix.Var}
	}

	if cfg.WarmupOps > 0 {
		if err := runPhase(workers, cfg.WarmupOps, false); err != nil {
			return nil, err
		}
	}

	// The engine and harness allocate (almost) nothing per operation, so a
	// GC cycle inside the measured phase is pure simulator noise — its mark
	// assists read as multi-ms latency outliers on small-core machines.
	// Collect what the setup phases left behind, then hold GC off until the
	// measurements are taken.
	runtime.GC()
	gcPrev := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPrev)

	before := pool.Stats()
	tbefore := tb.Stats()
	start := time.Now()
	if err := runPhase(workers, cfg.Ops, true); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	pm := pool.Stats().Sub(before)

	res := &Result{
		Mix:     cfg.Mix.Name,
		Threads: cfg.Threads,
		Ops:     cfg.Ops,
		Elapsed: elapsed,
		Hist:    &Hist{},
		PM:      pm,
		Table:   tb.Stats(),
	}
	// Re-window the cumulative directory-cache and split counters to the
	// measured phase, like every other per-op metric: preload and warmup
	// would otherwise dilute the reported rates.
	res.Table.DirCacheHits -= tbefore.DirCacheHits
	res.Table.DirCacheMisses -= tbefore.DirCacheMisses
	res.Table.DirCacheHitRate = 1
	if hm := res.Table.DirCacheHits + res.Table.DirCacheMisses; hm > 0 {
		res.Table.DirCacheHitRate = float64(res.Table.DirCacheHits) / float64(hm)
	}
	res.Table.SegFilterHits -= tbefore.SegFilterHits
	res.Table.SegFilterMisses -= tbefore.SegFilterMisses
	res.Table.SegFilterBypass -= tbefore.SegFilterBypass
	res.Table.SegFilterChecks -= tbefore.SegFilterChecks
	res.Table.SegFilterHeals -= tbefore.SegFilterHeals
	res.Table.SegFilterHitRate = 1
	if n := res.Table.SegFilterHits + res.Table.SegFilterMisses + res.Table.SegFilterBypass; n > 0 {
		res.Table.SegFilterHitRate = float64(res.Table.SegFilterHits) / float64(n)
	}
	res.Table.Splits -= tbefore.Splits
	res.Table.SplitStallNS -= tbefore.SplitStallNS
	res.Table.SplitAssists -= tbefore.SplitAssists
	res.Table.EpochRetired -= tbefore.EpochRetired
	res.Table.EpochReclaimed -= tbefore.EpochReclaimed
	res.Table.LogFreeHits -= tbefore.LogFreeHits
	res.Table.LogFreeMisses -= tbefore.LogFreeMisses
	res.Counts.Preloaded = cfg.Keyspace
	for _, w := range workers {
		res.Hist.Merge(&w.hist)
		res.Counts.add(&w.counts)
	}
	if res.Hist.Total() != uint64(cfg.Ops) {
		return nil, fmt.Errorf("bench: recorded %d latencies for %d ops", res.Hist.Total(), cfg.Ops)
	}
	if sec := elapsed.Seconds(); sec > 0 {
		res.MopsPerS = float64(cfg.Ops) / sec / 1e6
	}
	res.P50NS = res.Hist.Quantile(0.50)
	res.P90NS = res.Hist.Quantile(0.90)
	res.P99NS = res.Hist.Quantile(0.99)
	res.P999NS = res.Hist.Quantile(0.999)
	res.MaxNS = res.Hist.Max()
	res.MeanNS = res.Hist.Mean()
	ops := float64(cfg.Ops)
	res.ReadBytesPerOp = float64(pm.ReadLines) * pmem.CachelineSize / ops
	res.WriteBytesPerOp = float64(pm.WriteLines) * pmem.CachelineSize / ops
	res.FlushedBytesPerOp = float64(pm.FlushedLines) * pmem.CachelineSize / ops
	res.FencesPerOp = float64(pm.Fences) / ops
	res.DeviceNSPerOp = float64(pm.DeviceNS.Total()) / ops

	// Lost-operation audit: the table must account for exactly the
	// operations the workers report having applied. Inserts rejected with
	// ErrSegmentOverflow added no record and are audited via their own
	// counter, not by aborting the cell.
	if want := int64(cfg.Keyspace) + res.Counts.InsertOK - res.Counts.DeleteOK; tb.Count() != want {
		return nil, fmt.Errorf("bench: lost operations: table count %d, want %d", tb.Count(), want)
	}

	// Optional recovery measurement: reopen the run's durable image on both
	// restart paths. Crash path first — the image is snapshotted while the
	// table is still open, so its clean marker is unset and Open must
	// reconcile — splitting time-to-first-op (Open's O(directory) wall) from
	// time-to-fully-recovered (Open plus a synchronous RecoverAll: every
	// first-touch segment recovery and the record-log sweep). Then the table
	// is closed and the clean-shutdown image reopened through its fast path.
	if cfg.MeasureRecovery {
		want := tb.Count()
		crashImg := pool.Snapshot() // table still open: crash-path image
		tb.Close()
		cleanImg := pool.Snapshot() // clean marker persisted: fast-path image

		rp, err := pmem.OpenSnapshot(crashImg, pmem.Options{})
		if err != nil {
			return nil, fmt.Errorf("bench: recovery snapshot: %w", err)
		}
		start := time.Now()
		rt, err := core.Open(rp)
		if err != nil {
			return nil, fmt.Errorf("bench: crash reopen: %w", err)
		}
		res.RecoveryOpenNS = time.Since(start).Nanoseconds()
		rt.RecoverAll()
		res.RecoveryFullNS = time.Since(start).Nanoseconds()
		rs := rt.Stats()
		rt.Close()
		if rs.Count != want {
			return nil, fmt.Errorf("bench: crash recovery lost records: reopened count %d, want %d", rs.Count, want)
		}
		res.RecoveryTotalNS = rs.RecoveryTotalNS
		res.RecoveryDirNS = rs.RecoveryDirNS
		res.RecoverySegmentsNS = rs.RecoverySegmentsNS
		res.RecoveryLogNS = rs.RecoveryLogNS
		res.RecoveryMirrorsNS = rs.RecoveryMirrorsNS

		cp, err := pmem.OpenSnapshot(cleanImg, pmem.Options{})
		if err != nil {
			return nil, fmt.Errorf("bench: clean snapshot: %w", err)
		}
		start = time.Now()
		ct, err := core.Open(cp)
		if err != nil {
			return nil, fmt.Errorf("bench: clean reopen: %w", err)
		}
		res.RecoveryCleanOpenNS = time.Since(start).Nanoseconds()
		if got := ct.Count(); got != want {
			return nil, fmt.Errorf("bench: clean reopen lost records: count %d, want %d", got, want)
		}
		ct.Close()
	}
	return res, nil
}

// poolSize returns cfg.PoolSize or a size derived from the record volume the
// run can reach. 64 bytes per record covers the segment layout down to ~27%
// load factor (the post-split trough), plus directory blocks and slack.
// Variable-length mixes additionally budget each record's log blob at its
// worst-case capacity (updates copy-on-write, but superseded blobs recycle
// through the free list, so live log space stays ~one blob per record).
func (cfg Config) poolSize() uint64 {
	if cfg.PoolSize != 0 {
		return cfg.PoolSize
	}
	inserts := uint64((cfg.Ops + cfg.WarmupOps) * int64(cfg.Mix.Percent[workload.OpInsert]) / 100)
	size := (cfg.Keyspace+inserts)*64 + 8<<20
	if vs := cfg.Mix.Var; vs != nil {
		blob := uint64(16+vs.MaxKeyLen+vs.MaxValLen+15) &^ 15
		// Budget a worst-case blob per record plus per update (capacity
		// classes don't always line up for free-list reuse).
		updates := uint64((cfg.Ops + cfg.WarmupOps) * int64(cfg.Mix.Percent[workload.OpUpdate]) / 100)
		size += (cfg.Keyspace + inserts + updates) * blob
	}
	return size
}

type worker struct {
	table  *core.Table
	stream *workload.Stream
	hist   Hist
	counts Counts

	// Variable-length mode: non-nil varSpec switches apply to the []byte
	// API, encoding keys/values into the reusable buffers below so the
	// measured phase stays allocation-free.
	varSpec    *workload.VarSpec
	kbuf, vbuf []byte
	updateSalt uint64
}

// runPhase drives every worker through its share of totalOps operations,
// recording latency when measured is true. The first worker error (pool
// exhaustion, lost-update anomalies surfaced as errors) stops the phase.
func runPhase(workers []*worker, totalOps int64, measured bool) error {
	n := int64(len(workers))
	var (
		wg       sync.WaitGroup
		stopped  atomic.Bool
		firstErr atomic.Pointer[error]
	)
	for i, w := range workers {
		ops := totalOps / n
		if int64(i) < totalOps%n {
			ops++
		}
		wg.Add(1)
		go func(w *worker, ops int64) {
			defer wg.Done()
			if err := w.run(ops, measured, &stopped); err != nil && !errors.Is(err, errStopped) {
				e := err
				if firstErr.CompareAndSwap(nil, &e) {
					stopped.Store(true)
				}
			}
		}(w, ops)
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return *e
	}
	return nil
}

func (w *worker) run(ops int64, measured bool, stopped *atomic.Bool) error {
	for i := int64(0); i < ops; i++ {
		if stopped.Load() {
			return errStopped
		}
		op := w.stream.Next()
		var start time.Time
		if measured {
			start = time.Now()
		}
		if err := w.apply(op); err != nil {
			return err
		}
		if measured {
			w.hist.Record(time.Since(start).Nanoseconds())
		}
	}
	return nil
}

func (w *worker) apply(op workload.Op) error {
	if w.varSpec != nil {
		return w.applyVar(op)
	}
	c := &w.counts
	switch op.Kind {
	case workload.OpInsert:
		switch err := w.table.Insert(op.Key, op.Key^0x9e3779b97f4a7c15); {
		case err == nil:
			c.InsertOK++
		case errors.Is(err, core.ErrKeyExists):
			c.InsertDup++
		case errors.Is(err, core.ErrSegmentOverflow):
			c.InsertOverflow++
		default:
			return err
		}
	case workload.OpRead:
		if _, ok := w.table.Get(op.Key); ok {
			c.ReadHit++
		} else {
			c.ReadMiss++
		}
	case workload.OpReadNeg:
		if _, ok := w.table.Get(op.Key); ok {
			c.NegHit++
		} else {
			c.NegMiss++
		}
	case workload.OpUpdate:
		ok, err := w.table.Update(op.Key, op.Key+1)
		if err != nil {
			return err
		}
		if ok {
			c.UpdateOK++
		} else {
			c.UpdateNF++
		}
	case workload.OpDelete:
		if w.table.Delete(op.Key) {
			c.DeleteOK++
		} else {
			c.DeleteNF++
		}
	default:
		return fmt.Errorf("bench: unknown op kind %v", op.Kind)
	}
	return nil
}

// applyVar drives one operation through the variable-length []byte API,
// encoding the abstract key deterministically via the mix's VarSpec.
func (w *worker) applyVar(op workload.Op) error {
	c := &w.counts
	vs := w.varSpec
	w.kbuf = vs.AppendKey(w.kbuf[:0], op.Key)
	switch op.Kind {
	case workload.OpInsert:
		w.vbuf = vs.AppendValue(w.vbuf[:0], op.Key, 0)
		switch err := w.table.InsertB(w.kbuf, w.vbuf); {
		case err == nil:
			c.InsertOK++
		case errors.Is(err, core.ErrKeyExists):
			c.InsertDup++
		case errors.Is(err, core.ErrSegmentOverflow):
			c.InsertOverflow++
		case errors.Is(err, core.ErrRecordTooLarge):
			c.InsertTooLarge++
		default:
			return err
		}
	case workload.OpRead:
		v, ok := w.table.GetBAppend(w.vbuf[:0], w.kbuf)
		w.vbuf = v[:0]
		if ok {
			c.ReadHit++
		} else {
			c.ReadMiss++
		}
	case workload.OpReadNeg:
		v, ok := w.table.GetBAppend(w.vbuf[:0], w.kbuf)
		w.vbuf = v[:0]
		if ok {
			c.NegHit++
		} else {
			c.NegMiss++
		}
	case workload.OpUpdate:
		// A fresh salt per update changes the value's content and usually
		// its length, exercising the copy-on-write path.
		w.updateSalt++
		w.vbuf = vs.AppendValue(w.vbuf[:0], op.Key, w.updateSalt)
		ok, err := w.table.UpdateB(w.kbuf, w.vbuf)
		if err != nil {
			return err
		}
		if ok {
			c.UpdateOK++
		} else {
			c.UpdateNF++
		}
	case workload.OpDelete:
		if w.table.DeleteB(w.kbuf) {
			c.DeleteOK++
		} else {
			c.DeleteNF++
		}
	default:
		return fmt.Errorf("bench: unknown op kind %v", op.Kind)
	}
	return nil
}

func (c *Counts) add(o *Counts) {
	c.InsertOK += o.InsertOK
	c.InsertDup += o.InsertDup
	c.InsertOverflow += o.InsertOverflow
	c.InsertTooLarge += o.InsertTooLarge
	c.ReadHit += o.ReadHit
	c.ReadMiss += o.ReadMiss
	c.NegHit += o.NegHit
	c.NegMiss += o.NegMiss
	c.UpdateOK += o.UpdateOK
	c.UpdateNF += o.UpdateNF
	c.DeleteOK += o.DeleteOK
	c.DeleteNF += o.DeleteNF
}
