package main

// workloads.go fixes the five workloads and how they are sized. Names,
// mixes and the workload list are final (later issues cite them); only the
// op counts may be re-sized for another box, all by one factor (README).

// Load shape shared by every workload.
const (
	numClients     = 2  // closed-loop callers; never more than nproc on the reference box
	numWindows     = 20 // equal windows of one untraced measured phase
	pipelineDepth  = 16 // requests each svc_pipelined client keeps outstanding
	svcShards      = 2
	svcBatch       = 16
	setupRepeats   = 3   // set-ups per run; setup_s is their median
	restartRepeats = 9   // restarts per traced run; core.restart_*_ms are the fastest of them
	shortDivisor   = 50  // -short runs 1/50 of every count
	replayOps      = 100 // durability replay: thousands of ops at full scale, all clients
	postRestartOps = 10000
	defaultSeconds = 8 // BENCHMARK.json's run_seconds
)

type driverKind uint8

const (
	drvU64 driverKind = iota // Table.{Get,Insert,Update,Delete}
	drvVar                   // Table.{GetBAppend,InsertB,UpdateB,DeleteB}
	drvSvc                   // Frontend.Submit → Request.Wait, pipelined
)

// workload is one fixed traffic mix. preload and rate are totals over the
// clients at full scale: rate is the measured ops per second of -seconds,
// from the rates measured on the reference box (README "Sizing"), so the
// measured phase lasts about -seconds there. The counts are fixed by
// (-seconds, -short) alone, never by how fast the run goes, so count
// metrics are reproducible.
type workload struct {
	name, why string
	driver    driverKind
	preload   int
	rate      int
	mix       mixSpec
}

var workloads = []workload{
	{
		name:    "read_u64",
		why:     "CPU-side read path (hashfn, dircache, segfilter mirror, epoch, obs) with ~0 PM traffic; mirrors exceed L2",
		driver:  drvU64,
		preload: 1_000_000,
		rate:    2_200_000,
		mix:     mixSpec{get: 900, getMiss: 100},
	},
	{
		name:    "insert_u64",
		why:     "paper's insert experiment: bucket locks, displacement, stash, splits, doublings and pmem flush/fence spins; table grows ~10x",
		driver:  drvU64,
		preload: 100_000,
		rate:    240_000,
		mix:     mixSpec{insert: 1000},
	},
	{
		name:    "churn_zipf",
		why:     "reads, updates, inserts and deletes together on hot Zipfian keys: mirror upkeep under readers, lock contention, delete path",
		driver:  drvU64,
		preload: 500_000,
		rate:    520_000,
		mix:     mixSpec{get: 500, update: 200, insert: 150, del: 150, zipfTheta: 0.99},
	},
	{
		name:    "var_churn",
		why:     "variable-length records: record log append/commit/free-list reuse, COW updates, epoch-deferred free, one PM blob read per Get",
		driver:  drvVar,
		preload: 250_000,
		rate:    370_000,
		mix:     mixSpec{get: 600, update: 150, insert: 125, del: 125},
	},
	{
		name:    "svc_pipelined",
		why:     "only workload through the service tier: routing, shard queues, batch formation, fence-batch window, ack after tail fence",
		driver:  drvSvc,
		preload: 500_000,
		rate:    340_000,
		mix:     mixSpec{get: 500, insert: 200, update: 150, del: 150},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sizes are a run's counts, per client unless said otherwise.
type sizes struct {
	preload, windowOps, warmOps int
	replayPreload, replayOps    int
	poolSize, replayPoolSize    uint64 // per pool
}

func (w *workload) sizes(seconds int, short bool) sizes {
	div := 1
	if short {
		div = shortDivisor
	}
	s := sizes{
		preload:   w.preload / div / numClients,
		windowOps: w.rate * seconds / div / numWindows / numClients,
		replayOps: replayOps * 1000 / div / numClients,
	}
	// A whole window of warm-up: it lets the caches fill, and being mostly
	// busy-waited device time it steadies setup_s, whose other parts (a
	// fresh arena, the preload) ride on the box's memory (README "Noise").
	s.warmOps = s.windowOps
	s.replayPreload = s.preload / 10
	// The traced run's plan has fewer windows than numWindows, so the
	// untraced plan bounds the ops a run can make.
	s.poolSize = w.poolSize(s.preload, s.warmOps+numWindows*s.windowOps)
	s.replayPoolSize = w.poolSize(s.replayPreload, s.replayOps)
	return s
}

// poolSize budgets one pool for preload records plus ops more operations per
// client. Records at their peak are the preload plus the inserts the deletes
// do not cancel, plus an eighth of the inserts for the drift of a balanced
// mix; each takes 48 B of segment space (16 B slots down to a ~35 %
// post-split trough, plus directories). A variable-length record takes a
// 320 B worst-case blob, and so does an eighth of the inserts and updates:
// free-list reuse is by exact capacity class, so a superseded blob does not
// always fit the next one. Measured use is 40–70 % of this (README
// "Sizing"). A tighter pool is a faster benchmark: on the reference box
// fresh memory costs ~25 µs a page, and every set-up and restart repeat
// takes a whole arena of it.
func (w *workload) poolSize(preload, ops int) uint64 {
	inserts := ops * w.mix.insert / 1000
	updates := ops * w.mix.update / 1000
	deletes := ops * w.mix.del / 1000
	peak := preload + max(inserts-deletes, 0) + inserts/8
	bytes := uint64(numClients*peak) * 48
	if w.driver == drvVar {
		bytes += uint64(numClients*(peak+(inserts+updates)/8)) * 320
	}
	if w.driver == drvSvc {
		bytes = bytes * 5 / 4 / svcShards // routing spreads keys evenly to within a few per cent
	}
	return bytes + 8<<20
}
