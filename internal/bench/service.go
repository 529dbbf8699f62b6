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
	"dash/internal/service"
	"dash/internal/workload"
)

// Service-tier harness: drives a service.Shards + service.Frontend stack
// with simulated clients (workload.ClientSim) instead of driving one table
// directly. Latency here is client-observed submit→completion time —
// queueing and batching included — and PM traffic aggregates across every
// shard's pool, so the fence amortization of the batched pipeline shows up
// directly in FencesPerOp.

// ServiceConfig describes one service-tier benchmark cell.
type ServiceConfig struct {
	// Shards is the shard count (power of two).
	Shards int
	// Batch is the frontend's max requests per fence-amortized batch;
	// 1 is the unbatched baseline (one fence per write op).
	Batch int
	// Clients is the number of simulated client goroutines.
	Clients int
	// Window is each client's pipeline depth (max outstanding requests);
	// 0 defaults to 2×Batch (enough in-flight work to fill batches).
	Window int
	// Ops is the total number of measured operations across clients.
	Ops int64
	// WarmupOps is the unmeasured warmup operation count.
	WarmupOps int64
	// Keyspace is the number of preloaded records (spread over the shards
	// by routing).
	Keyspace uint64
	// Theta is the per-key Zipfian skew of the base distribution (0 =
	// uniform); shard-level skew comes from the simulation profile.
	Theta float64
	// Sim is the client-simulation profile to run.
	Sim workload.ClientSim
	// Seed makes the run reproducible.
	Seed uint64
	// PoolSize overrides the per-shard pool size; 0 sizes it from Keyspace
	// and the mix, with headroom for routing imbalance.
	PoolSize uint64
	// Model, when non-nil, is installed on every shard's pool after
	// preload (preload is setup, not workload).
	Model *pmem.CostModel
}

// ShardRow is one shard's slice of a service benchmark result.
type ShardRow struct {
	// Shard is the shard index.
	Shard int
	// Ops counts operations the shard's executor ran in the measured phase.
	Ops uint64
	// FencesPerOp and FencesElidedPerOp are the shard pool's measured-phase
	// fence traffic per shard-local operation.
	FencesPerOp       float64
	FencesElidedPerOp float64
	// Count and LoadFactor describe the shard table after the run.
	Count      int64
	LoadFactor float64
	// Splits counts the shard's measured-phase segment splits.
	Splits uint64
}

// ServiceResult is the outcome of one service-tier benchmark cell.
type ServiceResult struct {
	// Sim names the client-simulation profile that ran.
	Sim string
	// Shards, Batch and Clients echo the cell configuration.
	Shards  int
	Batch   int
	Clients int
	// Ops and Elapsed cover the measured phase; MopsPerS is aggregate
	// throughput across all shards.
	Ops      int64
	Elapsed  time.Duration
	MopsPerS float64

	// Client-observed latency (submit → completion, queueing and batching
	// included), nanoseconds over the measured phase.
	Hist   *Hist
	P50NS  int64
	P90NS  int64
	P99NS  int64
	P999NS int64
	MaxNS  int64
	MeanNS float64

	// PM aggregates measured-phase traffic across every shard's pool; the
	// *PerOp fields normalize by measured operations. FencesPerOp is the
	// headline number batching drives down; FencesElidedPerOp counts the
	// ordering points each batch's tail fence absorbed; DeviceNSPerOp is
	// the simulated device time charged per op (PM.DeviceNS by category).
	PM                pmem.StatsSnapshot
	ReadBytesPerOp    float64
	WriteBytesPerOp   float64
	FlushedBytesPerOp float64
	FencesPerOp       float64
	FencesElidedPerOp float64
	DeviceNSPerOp     float64

	// BatchSizeMean is the mean executor batch size over the measured
	// phase; FlushSaved the fences saved (elided minus tail fences);
	// Imbalance the (max/mean − 1) spread of ops across shards;
	// Reconnects the connection-churn session count across clients.
	BatchSizeMean float64
	FlushSaved    uint64
	Imbalance     float64
	Reconnects    int64

	// Aggregate table shape after the run: total records, mean load
	// factor, max global depth and total segments across shards.
	Count          int64
	LoadFactor     float64
	GlobalDepthMax uint8
	Segments       int

	// PerShard breaks the aggregate down by shard.
	PerShard []ShardRow

	Counts Counts
}

// RunService executes one service-tier cell: build the shards, preload,
// start the frontend, run the client simulation (warmup then measured),
// and aggregate per-shard and client-side metrics.
func RunService(cfg ServiceConfig) (*ServiceResult, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("bench: shards must be > 0")
	}
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("bench: clients must be > 0")
	}
	if cfg.Ops <= 0 {
		return nil, fmt.Errorf("bench: ops must be > 0")
	}
	if cfg.Batch < 1 {
		cfg.Batch = 1
	}
	if cfg.Window <= 0 {
		cfg.Window = 2 * cfg.Batch
	}

	svc, err := service.New(service.Config{
		Shards:   cfg.Shards,
		PoolSize: cfg.shardPoolSize(),
		Seed:     cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	defer svc.Close()

	sim := cfg.Sim
	if err := preloadShards(svc, sim, cfg.Keyspace); err != nil {
		return nil, err
	}

	gen, err := workload.NewSimGenerator(workload.SimConfig{
		Keyspace:  cfg.Keyspace,
		Theta:     cfg.Theta,
		Seed:      cfg.Seed,
		Sim:       sim,
		NumShards: cfg.Shards,
		ShardOf:   func(rank uint64) int { return routeRank(svc, sim, rank) },
	})
	if err != nil {
		return nil, err
	}

	// The cost model joins after preload, like bench.Run.
	if cfg.Model != nil {
		for i := 0; i < svc.N(); i++ {
			svc.Pool(i).SetModel(cfg.Model)
		}
		defer func() {
			for i := 0; i < svc.N(); i++ {
				svc.Pool(i).SetModel(nil)
			}
		}()
	}

	fe := service.NewFrontend(svc, cfg.Batch)
	defer fe.Close()

	clients := make([]*svcClient, cfg.Clients)
	for c := range clients {
		clients[c] = newSvcClient(fe, gen.Stream(c), sim, cfg.Window)
	}

	if cfg.WarmupOps > 0 {
		if err := runSvcPhase(clients, cfg.WarmupOps, false); err != nil {
			return nil, err
		}
	}

	// Hold GC off during measurement, as in Run: the pipeline allocates
	// almost nothing per op and GC assists would read as latency outliers.
	runtime.GC()
	gcPrev := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPrev)

	before := svc.PMStats()
	feBefore := fe.Metrics().Snapshot()
	shardBefore := make([]pmem.StatsSnapshot, svc.N())
	shardTBefore := make([]core.TableStats, svc.N())
	for i := 0; i < svc.N(); i++ {
		shardBefore[i] = svc.Pool(i).Stats()
		shardTBefore[i] = svc.Table(i).Stats()
	}
	start := time.Now()
	if err := runSvcPhase(clients, cfg.Ops, true); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	pm := svc.PMStats().Sub(before)
	feWin := fe.Metrics().Snapshot().Sub(feBefore)

	res := &ServiceResult{
		Sim:     sim.Name,
		Shards:  cfg.Shards,
		Batch:   cfg.Batch,
		Clients: cfg.Clients,
		Ops:     cfg.Ops,
		Elapsed: elapsed,
		Hist:    &Hist{},
		PM:      pm,
	}
	res.Counts.Preloaded = cfg.Keyspace
	for _, c := range clients {
		res.Hist.Merge(&c.hist)
		res.Counts.add(&c.counts)
		res.Reconnects += c.reconnects
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
	res.FencesElidedPerOp = float64(pm.FencesElided) / ops
	res.DeviceNSPerOp = float64(pm.DeviceNS.Total()) / ops
	if bs := feWin.Hists["service.batch.size"]; bs.Count > 0 {
		res.BatchSizeMean = bs.Mean
	}
	res.FlushSaved = feWin.Counters["service.batch.flush_saved"]

	// Per-shard rows, re-windowed to the measured phase; imbalance is the
	// measured-phase spread of executor ops across shards.
	var opsMax, opsSum uint64
	var lfSum float64
	for i := 0; i < svc.N(); i++ {
		spm := svc.Pool(i).Stats().Sub(shardBefore[i])
		ts := svc.Table(i).Stats()
		shOps := feWin.Counters[fmt.Sprintf("service.shard.%d.ops", i)]
		opsSum += shOps
		if shOps > opsMax {
			opsMax = shOps
		}
		row := ShardRow{
			Shard:      i,
			Ops:        shOps,
			Count:      ts.Count,
			LoadFactor: ts.LoadFactor,
			Splits:     ts.Splits - shardTBefore[i].Splits,
		}
		if shOps > 0 {
			row.FencesPerOp = float64(spm.Fences) / float64(shOps)
			row.FencesElidedPerOp = float64(spm.FencesElided) / float64(shOps)
		}
		res.PerShard = append(res.PerShard, row)
		res.Count += ts.Count
		lfSum += ts.LoadFactor
		res.Segments += ts.Segments
		if ts.GlobalDepth > res.GlobalDepthMax {
			res.GlobalDepthMax = ts.GlobalDepth
		}
	}
	res.LoadFactor = lfSum / float64(svc.N())
	if opsSum > 0 {
		mean := float64(opsSum) / float64(svc.N())
		res.Imbalance = float64(opsMax)/mean - 1
	}

	// Lost-operation audit across all shards, as in Run.
	if want := int64(cfg.Keyspace) + res.Counts.InsertOK - res.Counts.DeleteOK; res.Count != want {
		return nil, fmt.Errorf("bench: lost operations: shards count %d, want %d", res.Count, want)
	}
	return res, nil
}

// shardPoolSize returns the per-shard pool capacity: the single-table
// estimate split over the shards with 2× headroom for routing imbalance.
func (cfg ServiceConfig) shardPoolSize() uint64 {
	if cfg.PoolSize != 0 {
		return cfg.PoolSize
	}
	inserts := uint64((cfg.Ops + cfg.WarmupOps) * int64(cfg.Sim.Mix.Percent[workload.OpInsert]) / 100)
	size := (cfg.Keyspace + inserts) * 64
	if cfg.Sim.Var() {
		maxKey, maxVal := 0, 0
		specs := cfg.Sim.Tenants
		if len(specs) == 0 {
			specs = []workload.VarSpec{*cfg.Sim.Mix.Var}
		}
		for _, s := range specs {
			if s.MaxKeyLen > maxKey {
				maxKey = s.MaxKeyLen
			}
			if s.MaxValLen > maxVal {
				maxVal = s.MaxValLen
			}
		}
		blob := uint64(16+maxKey+maxVal+15) &^ 15
		updates := uint64((cfg.Ops + cfg.WarmupOps) * int64(cfg.Sim.Mix.Percent[workload.OpUpdate]) / 100)
		size += (cfg.Keyspace + inserts + updates) * blob
	}
	return size/uint64(cfg.Shards)*2 + 8<<20
}

// routeRank maps a preload rank to its shard in the encoding the
// simulation submits it with ([]byte specs route by byte hash).
func routeRank(svc *service.Shards, sim workload.ClientSim, rank uint64) int {
	key := workload.PreloadKey(rank)
	if spec := sim.SpecFor(key); spec != nil {
		return svc.RouteB(spec.AppendKey(nil, key))
	}
	return svc.Route(key)
}

// preloadShards inserts the keyspace directly into the shard tables
// (bypassing the frontend: preload is setup, not workload).
func preloadShards(svc *service.Shards, sim workload.ClientSim, keyspace uint64) error {
	var kbuf, vbuf []byte
	for i := uint64(0); i < keyspace; i++ {
		k := workload.PreloadKey(i)
		if spec := sim.SpecFor(k); spec != nil {
			kbuf = spec.AppendKey(kbuf[:0], k)
			vbuf = spec.AppendValue(vbuf[:0], k, 0)
			if err := svc.Table(svc.RouteB(kbuf)).InsertB(kbuf, vbuf); err != nil {
				return fmt.Errorf("bench: preload key %d: %w", i, err)
			}
		} else {
			if err := svc.Table(svc.Route(k)).Insert(k, i); err != nil {
				return fmt.Errorf("bench: preload key %d: %w", i, err)
			}
		}
	}
	return nil
}

// svcClient is one simulated client: a pipelined request window over the
// frontend with per-slot reusable requests and encode buffers.
type svcClient struct {
	fe     *service.Frontend
	stream *workload.SimStream
	sim    workload.ClientSim
	slots  []*svcSlot
	next   int // round-robin slot cursor

	hist       Hist
	counts     Counts
	reconnects int64
	updateSalt uint64
}

type svcSlot struct {
	req      service.Request
	kbuf     []byte
	start    time.Time
	inflight bool
	kind     workload.OpKind
}

func newSvcClient(fe *service.Frontend, stream *workload.SimStream, sim workload.ClientSim, window int) *svcClient {
	c := &svcClient{fe: fe, stream: stream, sim: sim, slots: make([]*svcSlot, window)}
	for i := range c.slots {
		c.slots[i] = &svcSlot{}
	}
	return c
}

// run drives ops operations through the pipeline, keeping up to
// len(slots) outstanding, and drains the window at session boundaries and
// at the end of the phase.
func (c *svcClient) run(ops int64, measured bool, stopped *atomic.Bool) error {
	for i := int64(0); i < ops; i++ {
		if stopped.Load() {
			c.drain(measured) // complete what is in flight before stopping
			return errStopped
		}
		sop := c.stream.Next()
		if sop.NewSession {
			if err := c.drain(measured); err != nil {
				return err
			}
			c.reconnects++
		}
		slot := c.slots[c.next]
		c.next = (c.next + 1) % len(c.slots)
		if slot.inflight {
			if err := c.complete(slot, measured); err != nil {
				return err
			}
		}
		c.submit(slot, sop.Op, measured)
	}
	return c.drain(measured)
}

// drain completes every in-flight request in the window.
func (c *svcClient) drain(measured bool) error {
	var firstErr error
	for _, s := range c.slots {
		if s.inflight {
			if err := c.complete(s, measured); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// submit encodes op into slot's request and submits it.
func (c *svcClient) submit(slot *svcSlot, op workload.Op, measured bool) {
	r := &slot.req
	slot.kind = op.Kind
	spec := c.sim.SpecFor(op.Key)
	if spec != nil {
		slot.kbuf = spec.AppendKey(slot.kbuf[:0], op.Key)
		r.KeyB = slot.kbuf
	} else {
		r.KeyB = nil
		r.Key = op.Key
	}
	switch op.Kind {
	case workload.OpInsert:
		r.Op = service.OpInsert
		if spec != nil {
			r.ValueB = spec.AppendValue(r.ValueB[:0], op.Key, 0)
		} else {
			r.Value = op.Key ^ 0x9e3779b97f4a7c15
		}
	case workload.OpRead, workload.OpReadNeg:
		r.Op = service.OpGet
		if spec != nil {
			r.ValueB = r.ValueB[:0]
		}
	case workload.OpUpdate:
		r.Op = service.OpUpdate
		if spec != nil {
			c.updateSalt++
			r.ValueB = spec.AppendValue(r.ValueB[:0], op.Key, c.updateSalt)
		} else {
			r.Value = op.Key + 1
		}
	case workload.OpDelete:
		r.Op = service.OpDelete
	}
	if measured {
		slot.start = time.Now()
	}
	slot.inflight = true
	c.fe.Submit(r)
}

// complete waits for slot's request, records its latency and tallies its
// outcome.
func (c *svcClient) complete(slot *svcSlot, measured bool) error {
	res := slot.req.Wait()
	slot.inflight = false
	if measured {
		c.hist.Record(time.Since(slot.start).Nanoseconds())
	}
	ct := &c.counts
	switch slot.kind {
	case workload.OpInsert:
		switch {
		case res.Err == nil:
			ct.InsertOK++
		case errors.Is(res.Err, core.ErrKeyExists):
			ct.InsertDup++
		case errors.Is(res.Err, core.ErrSegmentOverflow):
			ct.InsertOverflow++
		case errors.Is(res.Err, core.ErrRecordTooLarge):
			ct.InsertTooLarge++
		default:
			return res.Err
		}
	case workload.OpRead:
		if res.Err != nil {
			return res.Err
		}
		if res.Found {
			ct.ReadHit++
		} else {
			ct.ReadMiss++
		}
	case workload.OpReadNeg:
		if res.Err != nil {
			return res.Err
		}
		if res.Found {
			ct.NegHit++
		} else {
			ct.NegMiss++
		}
	case workload.OpUpdate:
		if res.Err != nil {
			return res.Err
		}
		if res.Found {
			ct.UpdateOK++
		} else {
			ct.UpdateNF++
		}
	case workload.OpDelete:
		if res.Err != nil {
			return res.Err
		}
		if res.Found {
			ct.DeleteOK++
		} else {
			ct.DeleteNF++
		}
	}
	return nil
}

// runSvcPhase drives every client through its share of totalOps, mirroring
// runPhase's error propagation.
func runSvcPhase(clients []*svcClient, totalOps int64, measured bool) error {
	n := int64(len(clients))
	var (
		wg       sync.WaitGroup
		stopped  atomic.Bool
		firstErr atomic.Pointer[error]
	)
	for i, c := range clients {
		ops := totalOps / n
		if int64(i) < totalOps%n {
			ops++
		}
		wg.Add(1)
		go func(c *svcClient, ops int64) {
			defer wg.Done()
			if err := c.run(ops, measured, &stopped); err != nil && !errors.Is(err, errStopped) {
				e := err
				if firstErr.CompareAndSwap(nil, &e) {
					stopped.Store(true)
				}
			}
		}(c, ops)
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return *e
	}
	return nil
}
