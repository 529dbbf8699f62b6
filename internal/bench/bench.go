// Package bench is the concurrent benchmark harness for the Dash-EH engine:
// it builds a cell (one bare table, or a sharded service behind the
// frontend), preloads it, drives N client goroutines through a deterministic
// workload (warmup phase, then a timed measurement phase), and reports
// throughput, per-op latency quantiles, PM traffic per operation, and the
// final table shape — the axes the paper evaluates on (§6, Fig. 6–9).
//
// A cell is a mix, a thread count and a shard count (Config): the same
// registered workload.Mix drives a bare table and a sharded service alike.
// There is one runner. A bare table is a service cell with no frontend: the
// same client loop fills the same service.Request from each workload.Op and
// either hands it to service.Exec (Config.Shards == 0) or submits it to the
// frontend, and the same Result — which is the BENCH file's row, JSON tags
// included — comes out of both.
package bench

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"dash/internal/core"
	"dash/internal/obs"
	"dash/internal/pmem"
	"dash/internal/service"
	"dash/internal/workload"
)

// Config describes one benchmark cell.
type Config struct {
	// Mix is the operation mix every client runs; a non-nil Mix.Var drives
	// the variable-length API.
	Mix workload.Mix
	// Threads is the number of client goroutines.
	Threads int
	// Ops is the total number of measured operations, split across clients.
	Ops int64
	// WarmupOps is the total number of unmeasured warmup operations run
	// before measurement; they heat caches and the cost-model clocks and
	// (for mutating mixes) push the table past its cold-start shape.
	WarmupOps int64
	// Keyspace is the number of preloaded records (spread over the shards
	// by routing).
	Keyspace uint64
	// Theta is the per-key Zipfian skew (0 = uniform); see workload.Config.
	Theta float64
	// Seed makes the run reproducible.
	Seed uint64
	// PoolSize overrides the PM pool size (per shard); 0 sizes it from
	// Keyspace and the mix's expected insert volume.
	PoolSize uint64
	// Model, when true, installs pmem.DefaultOptane() on every pool after
	// preload, so the measured phase pays simulated Optane latencies and
	// bandwidth limits. Preload runs uncharged: it is setup, not workload.
	Model bool
	// Shards selects the engine. 0 is a direct cell: clients call one
	// core.Table, and latency is the engine call's. ≥ 1 (a power of two) is
	// a service cell: clients send requests through a service.Frontend over
	// that many shards, and latency is client-observed Submit→Wait time,
	// routing included.
	Shards int
	// MeasureRecovery, when true, exercises both restart paths after the
	// measured phase: the crash path (images snapshotted while the tables
	// are open, so Open must reconcile and recovery completes lazily) and
	// the clean-shutdown fast path (images snapshotted after Close persisted
	// the clean marker). It fills the Result's restart walls — crucially
	// splitting time-to-first-op (RecoveryOpenNS) from
	// time-to-fully-recovered (RecoveryFullNS) — and Recovery. The reopens
	// run after every measured metric is taken, on unmodeled pools, so they
	// perturb nothing and report raw engine time.
	MeasureRecovery bool
	// OnTable, when non-nil, is called with every table the cell builds,
	// right after it is created and before preload — the hook dashbench uses
	// to point its debug endpoint (obs.Serve) at the cell currently running.
	OnTable func(*core.Table)
}

// Counts tallies operation outcomes across warmup + measurement. They let
// callers audit that no operation was lost: the final record count must
// equal Preloaded + InsertOK − DeleteOK exactly.
type Counts struct {
	Preloaded uint64 `json:"-"`
	InsertOK  int64  `json:"-"` // successful fresh inserts
	InsertDup int64  `json:"-"` // inserts rejected with ErrKeyExists (should be 0)
	// InsertOverflow counts inserts rejected with ErrSegmentOverflow (the
	// pathological one-sided split). They add no record, so the audit
	// formula ignores them — but they are counted and reported per cell
	// rather than aborting the run, so a cell that sheds load under a
	// skewed keyspace is visible instead of silently dropped.
	InsertOverflow int64 `json:"insert_overflows"`
	// InsertTooLarge counts inserts rejected with ErrRecordTooLarge
	// (oversized key/value for the record log). Like overflows they add no
	// record and are reported rather than aborting the cell.
	InsertTooLarge int64 `json:"insert_too_large"`
	ReadHit        int64 `json:"-"`
	ReadMiss       int64 `json:"-"` // positive-read misses (deleted by a delete-bearing mix)
	NegHit         int64 `json:"-"` // negative reads that found a key (should be 0)
	NegMiss        int64 `json:"-"`
	UpdateOK       int64 `json:"-"`
	UpdateNF       int64 `json:"-"`
	DeleteOK       int64 `json:"-"`
	DeleteNF       int64 `json:"-"`
}

// ShardRow is one shard's slice of a service cell's result.
type ShardRow struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Ops counts operations the shard executed in the measured phase.
	Ops uint64 `json:"ops"`
	// FencesPerOp is the shard pool's measured-phase fence count per
	// shard-local operation.
	FencesPerOp float64 `json:"fences_per_op"`
	// Count and LoadFactor describe the shard table after the run.
	Count      int64   `json:"count"`
	LoadFactor float64 `json:"load_factor"`
	// Splits counts the shard's measured-phase segment splits.
	Splits uint64 `json:"splits"`
}

// Result is the outcome of one benchmark cell, and the cell's row in a
// BENCH file: dashbench marshals it as is (schema v11; the JSON tags here and
// on Counts are the row's header). The header holds what the harness itself
// measures, times or walks; every meter the engine keeps arrives in Meters,
// under its registry name, with no copy in between.
type Result struct {
	// Mix names the mix that ran; Threads is the client
	// goroutine count. Shards echoes a service cell's shard count (zero,
	// and absent from the row, for a direct cell).
	Mix     string `json:"mix"`
	Threads int    `json:"threads"`
	Shards  int    `json:"shards,omitempty"`
	// Ops and Elapsed cover the measured phase; MopsPerS is aggregate
	// throughput (across all shards).
	Ops      int64         `json:"ops"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	MopsPerS float64       `json:"mops_per_s"`

	// Latency over the measured phase, nanoseconds: the engine call in a
	// direct cell, submit→completion in a service cell. Hist is every
	// client's recorder merged.
	Hist   obs.HistSnapshot `json:"-"`
	P50NS  int64            `json:"p50_ns"`
	P90NS  int64            `json:"p90_ns"`
	P99NS  int64            `json:"p99_ns"`
	P999NS int64            `json:"p999_ns"`
	MaxNS  int64            `json:"max_ns"`
	MeanNS float64          `json:"mean_ns"`

	// PM traffic per measured operation, read off the pools' pmem.* counters
	// in Meters: bytes (lines × cacheline size) read, written and flushed,
	// and fences. DeviceNS is the simulated device time the cost model
	// charged over the measured phase, by category, and DeviceNSPerOp its
	// total per op: MeanNS minus it is CPU time plus the simulator's own
	// overhead.
	ReadBytesPerOp    float64       `json:"pm_read_bytes_per_op"`
	WriteBytesPerOp   float64       `json:"pm_write_bytes_per_op"`
	FlushedBytesPerOp float64       `json:"pm_flushed_bytes_per_op"`
	FencesPerOp       float64       `json:"pm_fences_per_op"`
	DeviceNSPerOp     float64       `json:"pm_device_ns_per_op"`
	DeviceNS          pmem.DeviceNS `json:"pm_device_ns"`

	// The tables' shape after the run (core.Table.Stats), summed over
	// shards: total count, segments and allocated bytes, the deepest
	// shard's depth, load factor as total count ÷ total slot capacity and
	// stash share as stash records ÷ count.
	Count          int64   `json:"count"`
	GlobalDepth    uint8   `json:"global_depth"`
	Segments       int     `json:"segments"`
	LoadFactor     float64 `json:"load_factor"`
	StashShare     float64 `json:"stash_share"`
	AllocatedBytes uint64  `json:"allocated_bytes"`

	Counts

	// Restart walls (Config.MeasureRecovery only), timed by the harness:
	// RecoveryOpenNS is the crash-path Open (the O(directory) work before
	// the cell serves traffic — time-to-first-op), RecoveryFullNS Open
	// through RecoverAll (every first-touch segment recovery plus the
	// record-log sweep — time-to-fully-recovered), RecoveryCleanOpenNS the
	// clean-shutdown fast path's Open. Recovery is the crash-reopened
	// tables' registries once fully recovered, summed over shards: its
	// recovery.* meters break the restart's work down.
	RecoveryOpenNS      int64         `json:"recovery_open_ns,omitempty"`
	RecoveryFullNS      int64         `json:"recovery_full_ns,omitempty"`
	RecoveryCleanOpenNS int64         `json:"recovery_clean_open_ns,omitempty"`
	Recovery            *obs.Snapshot `json:"recovery_meters,omitempty"`

	// Service cells only: Imbalance is the (max/mean − 1) spread of ops
	// across shards, PerShard the per-shard breakdown.
	Imbalance float64    `json:"shard_imbalance,omitempty"`
	PerShard  []ShardRow `json:"shard_rows,omitempty"`

	// Meters is every table's registry windowed to the measured phase
	// (obs.Snapshot.Sub) and summed over the tables (obs.Snapshot.Add), plus
	// the frontend's registry on a service cell: a meter registered in
	// core/obs.go or by the frontend reaches the row with no edit here.
	Meters obs.Snapshot `json:"meters"`
}

// cell is the system under test: the tables and their pools, plus — for a
// service cell — the shard layer that routes keys to them and the frontend
// in front of it.
type cell struct {
	tables []*core.Table
	pools  []*pmem.Pool
	svc    *service.Shards   // nil in a direct cell
	fe     *service.Frontend // nil in a direct cell
}

// newCell creates cfg's pools and freshly formatted tables, announces them
// to cfg.OnTable and preloads the keyspace.
func newCell(cfg Config) (*cell, error) {
	var c *cell
	if cfg.Shards == 0 {
		pool, err := pmem.NewPool(pmem.Options{Size: cfg.poolSize()})
		if err != nil {
			return nil, err
		}
		tb, err := core.Create(pool, core.Options{Seed: cfg.Seed | 1})
		if err != nil {
			return nil, err
		}
		c = &cell{tables: []*core.Table{tb}, pools: []*pmem.Pool{pool}}
	} else {
		svc, err := service.New(service.Config{Shards: cfg.Shards, PoolSize: cfg.poolSize(), Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		c = serviceCell(svc)
	}
	if cfg.OnTable != nil {
		for _, tb := range c.tables {
			cfg.OnTable(tb)
		}
	}
	if err := c.preload(cfg.Mix.Var, cfg.Keyspace); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// serviceCell wraps a shard layer's tables and pools.
func serviceCell(svc *service.Shards) *cell {
	c := &cell{svc: svc}
	for i := 0; i < svc.N(); i++ {
		c.tables = append(c.tables, svc.Table(i))
		c.pools = append(c.pools, svc.Pool(i))
	}
	return c
}

// start readies a preloaded cell for traffic: it installs the cost model,
// starts the frontend of a service cell, and returns cfg.Threads clients,
// each with its own deterministic operation stream.
func (c *cell) start(cfg Config) ([]*client, error) {
	gen, err := workload.NewGenerator(workload.Config{
		Keyspace: cfg.Keyspace,
		Theta:    cfg.Theta,
		Mix:      cfg.Mix,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	// The cost model joins after preload, so only workload traffic is
	// charged. One model for all pools shares its bandwidth clocks, modeling
	// shards that live on one socket's DIMMs.
	if cfg.Model {
		model := pmem.DefaultOptane()
		for _, p := range c.pools {
			p.SetModel(model)
		}
	}
	if c.svc != nil {
		c.fe = service.NewFrontend(c.svc, 0)
	}
	clients := make([]*client, cfg.Threads)
	for i := range clients {
		clients[i] = &client{cell: c, spec: cfg.Mix.Var, stream: gen.Stream(i)}
	}
	return clients, nil
}

// close shuts the frontend (if started) and every table down, uncharged,
// once each table has completed its recovery and passed Verify — every cell
// ends here — and returns what Verify found; idempotent. Only a pool that
// has a model is written to: a reopened table's background recovery may
// still be reading its (unmodeled) pool.
func (c *cell) close() error {
	if c.fe != nil {
		c.fe.Close()
	}
	var errs []error
	for i, tb := range c.tables {
		if p := c.pools[i]; p.Model() != nil {
			p.SetModel(nil)
		}
		tb.RecoverAll()
		if err := tb.Verify(); err != nil {
			errs = append(errs, fmt.Errorf("bench: table %d: %w", i, err))
		}
		tb.Close()
	}
	c.tables = nil
	return errors.Join(errs...)
}

// route returns the table owning a key in the encoding it is submitted
// with: a non-nil kb routes by byte hash, as the frontend does.
func (c *cell) route(key uint64, kb []byte) int {
	switch {
	case c.svc == nil:
		return 0
	case kb != nil:
		return c.svc.RouteB(kb)
	}
	return c.svc.Route(key)
}

// preload inserts the keyspace straight into the tables (bypassing the
// frontend: preload is setup, not workload), each key encoded through spec
// when it is non-nil.
func (c *cell) preload(spec *workload.VarSpec, keyspace uint64) error {
	var kbuf, vbuf []byte
	for i := uint64(0); i < keyspace; i++ {
		k := workload.PreloadKey(i)
		var err error
		if spec != nil {
			kbuf = spec.AppendKey(kbuf[:0], k)
			vbuf = spec.AppendValue(vbuf[:0], k, 0)
			err = c.tables[c.route(0, kbuf)].InsertB(kbuf, vbuf)
		} else {
			err = c.tables[c.route(k, nil)].Insert(k, i)
		}
		if err != nil {
			return fmt.Errorf("bench: preload key %d: %w", i, err)
		}
	}
	return nil
}

// stats walks every table.
func (c *cell) stats() []core.TableStats {
	ts := make([]core.TableStats, len(c.tables))
	for i, tb := range c.tables {
		ts[i] = tb.Stats()
	}
	return ts
}

// meters reads every table's registry, then the frontend's if it runs.
func (c *cell) meters() []obs.Snapshot {
	var ms []obs.Snapshot
	for _, tb := range c.tables {
		ms = append(ms, tb.Metrics().Snapshot())
	}
	if c.fe != nil {
		ms = append(ms, c.fe.Metrics().Snapshot())
	}
	return ms
}

// errStopped is the sentinel a client returns when another client failed.
var errStopped = errors.New("bench: stopped by peer failure")

// Run executes one benchmark cell: build pools and tables, preload, start
// the frontend (service cells), warmup, measure, audit, optionally time a
// restart, and check every table it closes (cell.close). Every phase is
// deterministic in cfg.Seed except scheduling.
func Run(cfg Config) (*Result, error) {
	if cfg.Threads <= 0 {
		return nil, fmt.Errorf("bench: threads must be > 0")
	}
	if cfg.Ops <= 0 {
		return nil, fmt.Errorf("bench: ops must be > 0")
	}
	c, err := newCell(cfg)
	if err != nil {
		return nil, err
	}
	defer c.close()
	clients, err := c.start(cfg)
	if err != nil {
		return nil, err
	}

	if cfg.WarmupOps > 0 {
		if err := runPhase(clients, cfg.WarmupOps, false); err != nil {
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

	before := c.meters()
	start := time.Now()
	if err := runPhase(clients, cfg.Ops, true); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	ts := c.stats()
	after := c.meters()

	res := &Result{
		Mix:     cfg.Mix.Name,
		Threads: cfg.Threads,
		Shards:  cfg.Shards,
		Ops:     cfg.Ops,
		Elapsed: elapsed,
	}
	res.Preloaded = cfg.Keyspace
	for _, cl := range clients {
		res.Hist = res.Hist.Add(cl.hist.Snapshot())
		res.Counts.add(&cl.counts)
	}
	if res.Hist.Count != uint64(cfg.Ops) {
		return nil, fmt.Errorf("bench: recorded %d latencies for %d ops", res.Hist.Count, cfg.Ops)
	}

	// Window every registry — a table's carries its pool's traffic — to the
	// measured phase (preload and warmup would otherwise dilute the reported
	// rates), then sum over the registries.
	win := make([]obs.Snapshot, len(after))
	for i := range after {
		win[i] = after[i].Sub(before[i])
		res.Meters = res.Meters.Add(win[i])
	}
	res.addShape(ts)

	if sec := elapsed.Seconds(); sec > 0 {
		res.MopsPerS = float64(cfg.Ops) / sec / 1e6
	}
	res.P50NS = res.Hist.P50
	res.P90NS = res.Hist.Quantile(0.90)
	res.P99NS = res.Hist.P99
	res.P999NS = res.Hist.P999
	res.MaxNS = res.Hist.Max
	res.MeanNS = res.Hist.Mean
	ops, pm := float64(cfg.Ops), res.Meters.Counters
	res.ReadBytesPerOp = float64(pm["pmem.read_lines"]) * pmem.CachelineSize / ops
	res.WriteBytesPerOp = float64(pm["pmem.write_lines"]) * pmem.CachelineSize / ops
	res.FlushedBytesPerOp = float64(pm["pmem.flushed_lines"]) * pmem.CachelineSize / ops
	res.FencesPerOp = float64(pm["pmem.fences"]) / ops
	res.DeviceNS = pmem.DeviceNS{
		Read:  pm["pmem.device_ns.read"],
		Write: pm["pmem.device_ns.write"],
		Flush: pm["pmem.device_ns.flush"],
		Fence: pm["pmem.device_ns.fence"],
		Queue: pm["pmem.device_ns.queue"],
	}
	res.DeviceNSPerOp = float64(res.DeviceNS.Total()) / ops

	if c.fe != nil {
		// Per-shard rows from the frontend's per-shard op counters (its
		// window follows the tables'); imbalance is the measured-phase
		// spread of executed ops across shards.
		fe := win[len(c.tables)]
		var opsMax, opsSum uint64
		for i, st := range ts {
			row := ShardRow{
				Shard:      i,
				Ops:        fe.Counters[fmt.Sprintf("service.shard.%d.ops", i)],
				Count:      st.Count,
				LoadFactor: st.LoadFactor,
				Splits:     win[i].Counters["split.completed"],
			}
			if row.Ops > 0 {
				row.FencesPerOp = float64(win[i].Counters["pmem.fences"]) / float64(row.Ops)
			}
			res.PerShard = append(res.PerShard, row)
			opsSum += row.Ops
			opsMax = max(opsMax, row.Ops)
		}
		if opsSum > 0 {
			mean := float64(opsSum) / float64(len(ts))
			res.Imbalance = float64(opsMax)/mean - 1
		}
	}

	// Lost-operation audit: the tables must account for exactly the
	// operations the clients report having applied. Inserts rejected with
	// ErrSegmentOverflow added no record and are audited via their own
	// counter, not by aborting the cell.
	if want := int64(cfg.Keyspace) + res.InsertOK - res.DeleteOK; res.Count != want {
		return nil, fmt.Errorf("bench: lost operations: record count %d, want %d", res.Count, want)
	}
	if cfg.MeasureRecovery {
		if err := c.measureRecovery(cfg, res); err != nil {
			return nil, err
		}
	} else if err := c.close(); err != nil {
		return nil, err
	}
	return res, nil
}

// measureRecovery reopens the run's durable image on both restart paths.
// Crash path first — the image is snapshotted while the tables are still
// open, so their clean markers are unset and Open must reconcile —
// splitting time-to-first-op (Open's O(directory) wall) from
// time-to-fully-recovered (Open plus a synchronous RecoverAll: every
// first-touch segment recovery and the record-log sweep). Then the tables
// are closed and the clean-shutdown image reopened through its fast path.
// A service cell reopens through service.Open, shard after shard.
func (c *cell) measureRecovery(cfg Config, res *Result) error {
	want := res.Count
	crashImg := c.images() // tables still open: crash-path image
	if err := c.close(); err != nil {
		return err
	}
	cleanImg := c.images() // clean markers persisted: fast-path image

	rc, start, err := reopen(cfg, crashImg)
	if err != nil {
		return fmt.Errorf("bench: crash reopen: %w", err)
	}
	res.RecoveryOpenNS = time.Since(start).Nanoseconds()
	for _, tb := range rc.tables {
		tb.RecoverAll()
	}
	res.RecoveryFullNS = time.Since(start).Nanoseconds()
	var rec obs.Snapshot
	for _, m := range rc.meters() {
		rec = rec.Add(m)
	}
	res.Recovery = &rec
	got := rc.count()
	if err := rc.close(); err != nil {
		return fmt.Errorf("bench: crash reopen: %w", err)
	}
	if got != want {
		return fmt.Errorf("bench: crash recovery lost records: reopened count %d, want %d", got, want)
	}

	cc, start, err := reopen(cfg, cleanImg)
	if err != nil {
		return fmt.Errorf("bench: clean reopen: %w", err)
	}
	res.RecoveryCleanOpenNS = time.Since(start).Nanoseconds()
	got = cc.count()
	if err := cc.close(); err != nil {
		return fmt.Errorf("bench: clean reopen: %w", err)
	}
	if got != want {
		return fmt.Errorf("bench: clean reopen lost records: count %d, want %d", got, want)
	}
	return nil
}

// count is the cell's record count over all its tables.
func (c *cell) count() (n int64) {
	for _, tb := range c.tables {
		n += tb.Count()
	}
	return n
}

// images snapshots every pool's durable image.
func (c *cell) images() [][]byte {
	imgs := make([][]byte, len(c.pools))
	for i, p := range c.pools {
		imgs[i] = p.Snapshot()
	}
	return imgs
}

// reopen revives a cell of cfg's shape from durable images, on unmodeled
// pools. The returned time is when opening the tables began (the pools are
// set up before it: loading an image is not restart work).
func reopen(cfg Config, imgs [][]byte) (*cell, time.Time, error) {
	pools := make([]*pmem.Pool, len(imgs))
	for i, img := range imgs {
		p, err := pmem.OpenSnapshot(img, pmem.Options{})
		if err != nil {
			return nil, time.Time{}, err
		}
		pools[i] = p
	}
	start := time.Now()
	if cfg.Shards == 0 {
		tb, err := core.Open(pools[0])
		if err != nil {
			return nil, start, err
		}
		return &cell{tables: []*core.Table{tb}, pools: pools}, start, nil
	}
	svc, err := service.Open(pools, service.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, start, err
	}
	return serviceCell(svc), start, nil
}

// addShape sums the tables' shape walks into r's shape columns.
func (r *Result) addShape(ts []core.TableStats) {
	var capacity, stash int64
	for _, st := range ts {
		r.Count += st.Count
		r.GlobalDepth = max(r.GlobalDepth, st.GlobalDepth)
		r.Segments += st.Segments
		r.AllocatedBytes += st.AllocatedBytes
		capacity += st.SlotCapacity
		stash += st.StashRecords
	}
	if capacity > 0 {
		r.LoadFactor = float64(r.Count) / float64(capacity)
	}
	if r.Count > 0 {
		r.StashShare = float64(stash) / float64(r.Count)
	}
}

// poolSize returns cfg.PoolSize or a per-pool size derived from the record
// volume the run can reach. 64 bytes per record covers the segment layout
// down to ~27% load factor (the post-split trough). Variable-length
// workloads additionally budget a worst-case blob per record plus per
// update (updates copy-on-write and superseded blobs recycle through the
// free list, but capacity classes don't always line up for reuse). A direct
// cell's one pool holds it all plus directory blocks and slack; a service
// cell splits it over the shards with 2× headroom for routing imbalance.
func (cfg Config) poolSize() uint64 {
	if cfg.PoolSize != 0 {
		return cfg.PoolSize
	}
	mix, total := cfg.Mix, cfg.Ops+cfg.WarmupOps
	inserts := uint64(total * int64(mix.Percent[workload.OpInsert]) / 100)
	size := (cfg.Keyspace + inserts) * 64
	if v := mix.Var; v != nil {
		blob := uint64(16+v.MaxKeyLen+v.MaxValLen+15) &^ 15
		updates := uint64(total * int64(mix.Percent[workload.OpUpdate]) / 100)
		size += (cfg.Keyspace + inserts + updates) * blob
	}
	if cfg.Shards == 0 {
		return size + 8<<20
	}
	return size/uint64(cfg.Shards)*2 + 8<<20
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
