package main

// engine.go is the only file of the benchmark that imports the repository.
// Every call the benchmark makes into a layer is spelled out here, once, so
// the API surface later refactors must keep (README "Frozen API") is
// visible in one place. The rest of the benchmark sees only the small
// wrapper types below; the per-operation wrappers are one-line methods the
// compiler inlines, so they add nothing to a measured call.

import (
	"errors"
	"fmt"

	"dash/internal/core"
	"dash/internal/epoch"
	"dash/internal/hashfn"
	"dash/internal/obs"
	"dash/internal/pmem"
	"dash/internal/service"
)

// errClass buckets the errors an operation may return, so unexpected ones
// are counted by kind instead of aborting the run.
type errClass uint8

const (
	errNone errClass = iota
	errKeyExists
	errSegmentOverflow
	errPoolFull
	errRecordTooLarge
	errShardDown
	errClosed
	errOther
	numErrClasses
)

var errClassNames = [numErrClasses]string{
	"none", "ErrKeyExists", "ErrSegmentOverflow", "ErrPoolFull",
	"ErrRecordTooLarge", "ErrShardDown", "ErrClosed", "other",
}

func classify(err error) errClass {
	switch {
	case err == nil:
		return errNone
	case errors.Is(err, core.ErrKeyExists):
		return errKeyExists
	case errors.Is(err, core.ErrSegmentOverflow):
		return errSegmentOverflow
	case errors.Is(err, core.ErrPoolFull):
		return errPoolFull
	case errors.Is(err, core.ErrRecordTooLarge):
		return errRecordTooLarge
	case errors.Is(err, service.ErrShardDown):
		return errShardDown
	case errors.Is(err, service.ErrClosed):
		return errClosed
	}
	return errOther
}

// table wraps one core.Table.
type table struct{ t *core.Table }

func (tb table) get(k uint64) (uint64, bool)       { return tb.t.Get(k) }
func (tb table) insert(k, v uint64) error          { return tb.t.Insert(k, v) }
func (tb table) update(k, v uint64) (bool, error)  { return tb.t.Update(k, v) }
func (tb table) del(k uint64) bool                 { return tb.t.Delete(k) }
func (tb table) insertB(k, v []byte) error         { return tb.t.InsertB(k, v) }
func (tb table) updateB(k, v []byte) (bool, error) { return tb.t.UpdateB(k, v) }
func (tb table) delB(k []byte) bool                { return tb.t.DeleteB(k) }
func (tb table) getB(dst, k []byte) ([]byte, bool) { return tb.t.GetBAppend(dst, k) }

// request wraps one pipelined service request.
type request struct{ r service.Request }

// The frontend's op codes, in the benchmark's op order (gen.go).
var svcOps = [numKinds]service.Op{
	opGet: service.OpGet, opGetMiss: service.OpGet, opInsert: service.OpInsert,
	opUpdate: service.OpUpdate, opDelete: service.OpDelete,
}

func (q *request) fill(kind uint8, key, val uint64) {
	q.r.Op, q.r.Key, q.r.Value = svcOps[kind], key, val
}

// wait blocks for the reply: the value read, whether the key was found, and
// the error.
func (q *request) wait() (uint64, bool, error) {
	res := q.r.Wait()
	return res.Value, res.Found, res.Err
}

// engine is the system under test: one bare table, or a sharded service
// (shards + batched frontend) when shards is non-nil.
type engine struct {
	tables []table
	pools  []*pmem.Pool
	shards *service.Shards
	fe     *service.Frontend
	cfg    service.Config
	batch  int
}

// engineSpec says what to build.
type engineSpec struct {
	shards   int // 0 = a bare table
	batch    int // frontend batch size (service only)
	poolSize uint64
	track    bool // crash tracking, for the durability replay
}

// tableSeed fixes every table's hash seed (and the service's routing seed):
// like the preloaded records, it is part of the workload's definition, not
// of the seeded input.
const tableSeed = 0x6461736862656e63 // "dashbenc"

// newEngine creates the pools, pre-faults their arenas and formats the
// tables. No cost model is installed: preload runs at CPU speed.
func newEngine(sp engineSpec) (*engine, error) {
	e := &engine{batch: sp.batch}
	if sp.shards == 0 {
		pool, err := pmem.NewPool(pmem.Options{Size: sp.poolSize, TrackCrashes: sp.track})
		if err != nil {
			return nil, fmt.Errorf("new pool: %w", err)
		}
		prefault(pool)
		t, err := core.Create(pool, core.Options{Seed: tableSeed | 1})
		if err != nil {
			return nil, fmt.Errorf("create table: %w", err)
		}
		e.pools = []*pmem.Pool{pool}
		e.tables = []table{{t}}
		return e, nil
	}
	e.cfg = service.Config{Shards: sp.shards, PoolSize: sp.poolSize, Seed: tableSeed, TrackCrashes: sp.track}
	s, err := service.New(e.cfg)
	if err != nil {
		return nil, fmt.Errorf("new shards: %w", err)
	}
	e.adoptShards(s)
	for _, p := range e.pools {
		prefault(p)
	}
	e.fe = service.NewFrontend(s, sp.batch)
	return e, nil
}

func (e *engine) adoptShards(s *service.Shards) {
	e.shards = s
	e.pools, e.tables = nil, nil
	for i := 0; i < e.cfg.Shards; i++ {
		e.pools = append(e.pools, s.Pool(i))
		e.tables = append(e.tables, table{s.Table(i)})
	}
}

// prefault touches every page of the arena for writing so page faults are
// paid in set-up, not in the first measured windows. A page whose first
// byte is zero gets a zero stored to it (content unchanged, page mapped); a
// page whose first byte is non-zero has been written and is mapped already.
func prefault(p *pmem.Pool) {
	const first = pmem.CachelineSize // offset 0 is the reserved null line
	b := p.Bytes(first, p.Size()-first)
	for i := 0; i < len(b); i += 4096 {
		if b[i] == 0 {
			b[i] = 0
		}
	}
}

// tableFor returns the table that owns key: the only one, or the shard the
// routing hash names.
func (e *engine) tableFor(key uint64) table {
	if e.shards == nil {
		return e.tables[0]
	}
	return e.tables[e.shards.Route(key)]
}

func (e *engine) submit(q *request) { e.fe.Submit(&q.r) }

// setModel installs the Optane cost model on every pool (on) or removes it.
// One model is shared, so shards share its bandwidth clocks like DIMMs of
// one socket.
func (e *engine) setModel(on bool) {
	var m *pmem.CostModel
	if on {
		m = pmem.DefaultOptane()
	}
	for _, p := range e.pools {
		p.SetModel(m)
	}
}

// pmCounts is PM traffic summed over the pools.
type pmCounts struct {
	readLines, writeLines, flushedLines, fences, fencesElided uint64
}

func (a pmCounts) sub(b pmCounts) pmCounts {
	return pmCounts{a.readLines - b.readLines, a.writeLines - b.writeLines,
		a.flushedLines - b.flushedLines, a.fences - b.fences, a.fencesElided - b.fencesElided}
}

func (a pmCounts) add(b pmCounts) pmCounts {
	return pmCounts{a.readLines + b.readLines, a.writeLines + b.writeLines,
		a.flushedLines + b.flushedLines, a.fences + b.fences, a.fencesElided + b.fencesElided}
}

func (e *engine) pmStats() pmCounts {
	var st pmem.StatsSnapshot
	if e.shards != nil {
		st = e.shards.PMStats()
	} else {
		st = e.pools[0].Stats()
	}
	return pmCounts{st.ReadLines, st.WriteLines, st.FlushedLines, st.Fences, st.FencesElided}
}

func (e *engine) count() int64 {
	if e.shards != nil {
		return e.shards.Count()
	}
	return e.tables[0].t.Count()
}

// shape is Table.Stats summed over the tables: cumulative counters plus the
// structural walk.
type shape struct {
	count, slotCapacity, stashRecords int64
	segments                          int
	allocatedBytes                    uint64
	dirCacheHits, dirCacheMisses      uint64
	dirCacheBytes, segFilterBytes     uint64
	segHits, segMisses, segBypass     uint64
	segHeals                          uint64
	splits, splitAssists              uint64
	splitStallNS                      int64
	epochRetired, epochReclaimed      uint64
	epochPending                      uint64
	logChunk, logLive, logFree        uint64
	logFreeHits, logFreeMisses        uint64
	recDirNS, recSegNS, recLogNS      int64
	recMirrorsNS                      int64
}

func (s shape) loadFactor() float64 {
	if s.slotCapacity == 0 {
		return 0
	}
	return float64(s.count) / float64(s.slotCapacity)
}

func (e *engine) stats() shape {
	var s shape
	for _, tb := range e.tables {
		st := tb.t.Stats()
		s.count += st.Count
		s.slotCapacity += st.SlotCapacity
		s.stashRecords += st.StashRecords
		s.segments += st.Segments
		s.allocatedBytes += st.AllocatedBytes
		s.dirCacheHits += st.DirCacheHits
		s.dirCacheMisses += st.DirCacheMisses
		s.dirCacheBytes += st.DirCacheBytes
		s.segFilterBytes += st.SegFilterBytes
		s.segHits += st.SegFilterHits
		s.segMisses += st.SegFilterMisses
		s.segBypass += st.SegFilterBypass
		s.segHeals += st.SegFilterHeals
		s.splits += st.Splits
		s.splitAssists += st.SplitAssists
		s.splitStallNS += st.SplitStallNS
		s.epochRetired += st.EpochRetired
		s.epochReclaimed += st.EpochReclaimed
		s.epochPending += st.EpochPending
		s.logChunk += st.LogChunkBytes
		s.logLive += st.LogLiveBytes
		s.logFree += st.LogFreeBytes
		s.logFreeHits += st.LogFreeHits
		s.logFreeMisses += st.LogFreeMisses
		s.recDirNS += st.RecoveryDirNS
		s.recSegNS += st.RecoverySegmentsNS
		s.recLogNS += st.RecoveryLogNS
		s.recMirrorsNS += st.RecoveryMirrorsNS
	}
	return s
}

// regSnap is the registries of every table (and the frontend) at one
// instant.
type regSnap struct {
	tables []obs.Snapshot
	fe     obs.Snapshot
}

func (e *engine) registry() regSnap {
	var r regSnap
	for _, tb := range e.tables {
		r.tables = append(r.tables, tb.t.Metrics().Snapshot())
	}
	if e.fe != nil {
		r.fe = e.fe.Metrics().Snapshot()
	}
	return r
}

// histSummary is one registry histogram over a window.
type histSummary struct {
	count          uint64
	mean           float64
	p50, p99, p999 int64
}

// tableHist summarises histogram name over the window later−earlier. With
// several tables the counts add, the mean is count-weighted and each
// quantile is the largest over the tables (a bound, not a merge).
func (later regSnap) tableHist(earlier regSnap, name string) histSummary {
	var out histSummary
	var sum float64
	for i := range later.tables {
		h := later.tables[i].Sub(earlier.tables[i]).Hists[name]
		out.count += h.Count
		sum += float64(h.Sum)
		out.p50 = max(out.p50, h.P50)
		out.p99 = max(out.p99, h.P99)
		out.p999 = max(out.p999, h.P999)
	}
	if out.count > 0 {
		out.mean = sum / float64(out.count)
	}
	return out
}

// frontendWindow reads the frontend meters over later−earlier: mean batch
// size, and the shard imbalance gauge (permille, instantaneous).
func (later regSnap) frontendWindow(earlier regSnap) (batchMean, imbalance float64) {
	d := later.fe.Sub(earlier.fe)
	return d.Hists["service.batch.size"].Mean, float64(d.Gauges["service.shard.imbalance"]) / 1000
}

// flat sums every counter and gauge over the tables, and adds the
// frontend's, for the trace's window boundaries.
func (r regSnap) flat() map[string]float64 {
	out := map[string]float64{}
	for _, s := range append(append([]obs.Snapshot(nil), r.tables...), r.fe) {
		for name, v := range s.Counters {
			out[name] += float64(v)
		}
		for name, v := range s.Gauges {
			out[name] += float64(v)
		}
	}
	return out
}

// snapshot copies every pool's durable image while the tables are open, so
// reopening it takes the crash path.
func (e *engine) snapshot() [][]byte {
	imgs := make([][]byte, len(e.pools))
	for i, p := range e.pools {
		imgs[i] = p.Snapshot()
	}
	return imgs
}

// reopened is a restarted engine plus the walls of its restart.
type reopened struct {
	*engine
	openSnapshotNS, openNS int64
}

// reopen restarts from images: OpenSnapshot (the copy, timed apart), then
// core.Open or service.Open (the restart proper).
func (e *engine) reopen(imgs [][]byte) (reopened, error) {
	t0 := now()
	pools := make([]*pmem.Pool, len(imgs))
	for i, img := range imgs {
		p, err := pmem.OpenSnapshot(img, pmem.Options{})
		if err != nil {
			return reopened{}, fmt.Errorf("open snapshot: %w", err)
		}
		pools[i] = p
	}
	t1 := now()
	ne, err := e.openPools(pools)
	return reopened{ne, t1 - t0, now() - t1}, err
}

// openPools runs the restart path over pools holding this engine's images.
func (e *engine) openPools(pools []*pmem.Pool) (*engine, error) {
	ne := &engine{cfg: e.cfg, batch: e.batch}
	if e.shards == nil {
		t, err := core.Open(pools[0])
		if err != nil {
			return nil, fmt.Errorf("open table: %w", err)
		}
		ne.pools, ne.tables = pools, []table{{t}}
		return ne, nil
	}
	s, err := service.Open(pools, e.cfg)
	if err != nil {
		return nil, fmt.Errorf("open shards: %w", err)
	}
	ne.adoptShards(s)
	return ne, nil
}

// recoverAll forces every deferred recovery step to finish now.
func (e *engine) recoverAll() {
	for _, tb := range e.tables {
		tb.t.RecoverAll()
	}
}

// firstTouch is the lazy first-touch recovery latency since Open.
func (e *engine) firstTouch() histSummary {
	r := e.registry()
	return r.tableHist(regSnap{tables: make([]obs.Snapshot, len(r.tables))}, "recovery.lazy.seg_ns")
}

// crash drops every unflushed cacheline of every pool (Pool.Crash, which
// needs crash tracking). The caller has quiesced all clients and closed the
// frontend; reopenInPlace then restarts from what survived.
func (e *engine) crash() {
	for _, p := range e.pools {
		p.Crash()
	}
}

func (e *engine) reopenInPlace() (*engine, error) { return e.openPools(e.pools) }

// closeFrontend drains and stops the shard executors.
func (e *engine) closeFrontend() {
	if e.fe != nil {
		e.fe.Close()
		e.fe = nil
	}
}

// close shuts the engine down cleanly (frontend first, then the tables'
// clean-shutdown marker).
func (e *engine) close() {
	e.closeFrontend()
	if e.shards != nil {
		e.shards.Close()
		return
	}
	e.tables[0].t.Close()
}

// arena returns pool i's bytes, for the self-test that corrupts a record.
func (e *engine) arena(i int) []byte {
	const first = pmem.CachelineSize
	return e.pools[i].Bytes(first, e.pools[i].Size()-first)
}

// ---- unit-cost probes: one micro-drive per layer's public function ----

// timeLoop runs f n times and returns the mean nanoseconds per call.
func timeLoop(n int, f func(i int)) float64 {
	t0 := now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(now()-t0) / float64(n)
}

var probeSink uint64

// runProbes measures the unit costs. About a second in total.
func runProbes() (map[string]float64, error) {
	out := map[string]float64{}
	const n = 1 << 20

	var acc uint64
	out["hashfn.hash_u64_ns"] = timeLoop(4*n, func(i int) { acc += hashfn.HashU64(uint64(i), hashfn.DefaultSeed) })
	buf := make([]byte, 32)
	out["hashfn.hash64_32B_ns"] = timeLoop(2*n, func(i int) {
		buf[0] = byte(i)
		acc += hashfn.Hash64(buf, hashfn.DefaultSeed)
	})

	em := epoch.NewManager()
	out["epoch.enter_exit_ns"] = timeLoop(2*n, func(int) { em.Enter().Exit() })

	var ctr obs.Counter
	out["obs.counter_add_ns"] = timeLoop(4*n, func(int) { ctr.Add(1) })
	fl := obs.NewFlight()
	out["obs.flight_record_ns"] = timeLoop(2*n, func(i int) { fl.Record(obs.EvGet, obs.PathMirrorHit, uint64(i), 1) })
	acc += ctr.Total()

	out["bench.clock_read_ns"] = timeLoop(4*n, func(int) { acc += uint64(now()) })

	// pmem under the full cost model, on a scratch pool. Addresses stride
	// by a line over 1 MiB so nothing about the access is special.
	const scratch = 64 << 20
	pool, err := pmem.NewPool(pmem.Options{Size: scratch})
	if err != nil {
		return nil, fmt.Errorf("probe pool: %w", err)
	}
	prefault(pool)
	model := pmem.DefaultOptane()
	pool.SetModel(model)
	addr := func(i int) pmem.Addr { return pmem.Addr(4096 + (i&16383)*pmem.CachelineSize) }
	const m = 100_000
	rd := timeLoop(m, func(i int) { acc += pool.ReadU64(addr(i)) })
	wr := timeLoop(m, func(i int) { pool.WriteU64(addr(i), uint64(i)) })
	fl2 := timeLoop(m, func(i int) { pool.Flush(addr(i), 8) })
	fe := timeLoop(m, func(int) { pool.Fence() })
	out["pmem.read_ns"], out["pmem.write_ns"], out["pmem.flush_ns"], out["pmem.fence_ns"] = rd, wr, fl2, fe
	out["pmem.persist_ns"] = timeLoop(m, func(i int) { pool.Persist(addr(i), 8) })
	nominal := float64(model.ReadLatencyNS + model.WriteLatencyNS + model.FlushNS + model.FenceNS)
	out["pmem.spin_overshoot_ns"] = (rd + wr + fl2 + fe - nominal) / 4

	// varlog: append + commit of a 128 B blob (16 B key, 112 B value) into a
	// log whose chunks come from a bump allocator over the scratch pool.
	next := pmem.Addr(2 << 20)
	alloc := func(size uint64) (pmem.Addr, error) {
		a := next
		if uint64(a)+size > scratch {
			return 0, errors.New("probe pool full")
		}
		next = next.Add(size)
		return a, nil
	}
	vl := pmem.NewVarLog(pool, pmem.Addr(3<<19), 0, alloc)
	key, val := make([]byte, 16), make([]byte, 112)
	var verr error
	out["varlog.append_commit_ns"] = timeLoop(m, func(i int) {
		key[0], key[1], key[2] = byte(i), byte(i>>8), byte(i>>16)
		a, err := vl.Append(key, val)
		if err != nil {
			verr = err
			return
		}
		vl.Commit(a)
	})
	if verr != nil {
		return nil, fmt.Errorf("probe varlog: %w", verr)
	}

	// obs.Registry.Snapshot of a live table's registry, and Shards.Route.
	sh, err := service.New(service.Config{Shards: 2, PoolSize: 4 << 20, Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("probe shards: %w", err)
	}
	reg := sh.Table(0).Metrics()
	out["obs.registry_snapshot_us"] = timeLoop(2000, func(int) { acc += uint64(len(reg.Snapshot().Counters)) }) / 1000
	out["service.route_ns"] = timeLoop(4*n, func(i int) { acc += uint64(sh.Route(uint64(i))) })
	sh.Close()

	probeSink = acc
	return out, nil
}
