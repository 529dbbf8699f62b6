// Command dashbench drives the Dash-EH engine through a matrix of concurrent
// workloads and reports throughput, latency quantiles, simulated-PM traffic
// per operation and final table shape — the repo's counterpart to the
// paper's Fig. 6–9 experiments.
//
// The benchmark runs every cell of (mix × thread ladder): the thread ladder
// is the powers of two up to -threads, and the mix set is the core suite
// (insert, read, read-neg, balanced, ycsb-b — always run so that every
// BENCH_*.json is comparable across PRs) plus whatever -mix adds. Use -only
// to run exactly the -mix list for quick experiments.
//
// Results go to stdout as a human table and to -out as machine-readable
// JSON for the repo's perf-trajectory tracking. -recovery additionally
// reopens each cell's durable image and reports recovery phase timings, and
// -debug-addr serves the live table's metrics registry, flight-recorder
// trace and pprof over HTTP while the run progresses.
//
// -shards N (with -batch B) additionally runs the service-tier suite: each
// client-simulation profile (-sims, default all of workload.ClientSims) is
// driven through a service.Shards + service.Frontend stack twice — once at
// the unbatched single-table baseline (1 shard, batch 1) and once at the
// requested (N, B) — so one BENCH file shows the fence amortization and
// scaling the batched sharded pipeline buys. Service cells report
// client-observed submit→completion latency plus per-shard rows.
//
// Example:
//
//	go run ./cmd/dashbench -threads 8 -mix balanced -debug-addr localhost:6060
//	go run ./cmd/dashbench -only -shards 4 -batch 16 -sims svc-balanced
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"sync/atomic"

	"dash/internal/bench"
	"dash/internal/core"
	"dash/internal/obs"
	"dash/internal/pmem"
	"dash/internal/workload"
)

// coreSuite is the fixed mix set every full run includes, keeping BENCH
// files comparable PR to PR.
var coreSuite = []string{"insert", "read", "read-neg", "balanced", "ycsb-b"}

type cellJSON struct {
	Mix       string  `json:"mix"`
	Threads   int     `json:"threads"`
	Ops       int64   `json:"ops"`
	ElapsedNS int64   `json:"elapsed_ns"`
	MopsPerS  float64 `json:"mops_per_s"`

	P50NS  int64   `json:"p50_ns"`
	P90NS  int64   `json:"p90_ns"`
	P99NS  int64   `json:"p99_ns"`
	P999NS int64   `json:"p999_ns"`
	MaxNS  int64   `json:"max_ns"`
	MaxUS  float64 `json:"max_us"` // max_ns in µs: the tail number tracked across PRs
	MeanNS float64 `json:"mean_ns"`

	PMReadBytesPerOp    float64 `json:"pm_read_bytes_per_op"`
	PMWriteBytesPerOp   float64 `json:"pm_write_bytes_per_op"`
	PMFlushedBytesPerOp float64 `json:"pm_flushed_bytes_per_op"`
	PMFencesPerOp       float64 `json:"pm_fences_per_op"`
	// Simulated device time the cost model charged (schema v8): per op, and
	// the measured phase's total by category.
	PMDeviceNSPerOp float64       `json:"pm_device_ns_per_op"`
	PMDeviceNS      pmem.DeviceNS `json:"pm_device_ns"`

	Count          int64   `json:"count"`
	GlobalDepth    uint8   `json:"global_depth"`
	Segments       int     `json:"segments"`
	LoadFactor     float64 `json:"load_factor"`
	StashShare     float64 `json:"stash_share"`
	AllocatedBytes uint64  `json:"allocated_bytes"`

	DirCacheHits    uint64  `json:"dir_cache_hits"`
	DirCacheMisses  uint64  `json:"dir_cache_misses"`
	DirCacheHitRate float64 `json:"dir_cache_hit_rate"`
	DirCacheBytes   uint64  `json:"dir_cache_bytes"`

	// Segment filter mirror telemetry over the measured phase (schema v4):
	// mirror-served reads vs PM fallbacks vs missing-mirror bypasses, the
	// mirrors' DRAM footprint, and the sampled self-check / heal counts.
	SegFilterHits    uint64  `json:"seg_filter_hits"`
	SegFilterMisses  uint64  `json:"seg_filter_misses"`
	SegFilterBypass  uint64  `json:"seg_filter_bypass"`
	SegFilterHitRate float64 `json:"seg_filter_hit_rate"`
	SegFilterBytes   uint64  `json:"seg_filter_bytes"`
	SegFilterChecks  uint64  `json:"seg_filter_checks"`
	SegFilterHeals   uint64  `json:"seg_filter_heals"`

	// Record-log shape after the run (variable-length mixes; zero for
	// pure-inline cells): chunk bytes carved from the pool, live blob
	// bytes/count, and free-list bytes awaiting reuse.
	LogChunkBytes uint64 `json:"log_chunk_bytes"`
	LogLiveBytes  uint64 `json:"log_live_bytes"`
	LogLiveBlobs  int64  `json:"log_live_blobs"`
	LogFreeBytes  uint64 `json:"log_free_bytes"`

	// Split telemetry over the measured phase: completed splits, cumulative
	// publish stall (the stop-the-world exposure), writer assists into
	// in-flight siblings, and inserts lost to pathological overflow.
	Splits          uint64 `json:"splits"`
	SplitStallNS    int64  `json:"split_stall_ns"`
	SplitAssists    uint64 `json:"split_assists"`
	InsertOverflows int64  `json:"insert_overflows"`
	InsertTooLarge  int64  `json:"insert_too_large"`

	// Epoch-reclamation and record-log free-list telemetry over the measured
	// phase (schema v5): objects retired/actually freed (plus the backlog at
	// the end of the run), and blob allocations served by exact-capacity
	// reuse vs fresh bump allocations.
	EpochRetired   uint64 `json:"epoch_retired"`
	EpochReclaimed uint64 `json:"epoch_reclaimed"`
	EpochPending   uint64 `json:"epoch_pending"`
	LogFreeHits    uint64 `json:"log_free_hits"`
	LogFreeMisses  uint64 `json:"log_free_misses"`

	// Restart latency from re-opening the cell's durable image (-recovery;
	// zero otherwise, schema v6). The crash-path reopen splits
	// time-to-first-op (recovery_open_ns: core.Open's O(directory) work)
	// from time-to-fully-recovered (recovery_full_ns: Open + every lazy
	// first-touch segment recovery + the record-log sweep); the phase
	// fields break that full recovery's work down. recovery_clean_open_ns
	// is the clean-shutdown fast path's Open wall.
	RecoveryOpenNS      int64 `json:"recovery_open_ns,omitempty"`
	RecoveryFullNS      int64 `json:"recovery_full_ns,omitempty"`
	RecoveryCleanOpenNS int64 `json:"recovery_clean_open_ns,omitempty"`
	RecoveryDirNS       int64 `json:"recovery_dir_ns,omitempty"`
	RecoverySegmentsNS  int64 `json:"recovery_segments_ns,omitempty"`
	RecoveryLogNS       int64 `json:"recovery_log_ns,omitempty"`
	RecoveryMirrorsNS   int64 `json:"recovery_mirrors_ns,omitempty"`
	RecoveryTotalNS     int64 `json:"recovery_total_ns,omitempty"`

	// Service-tier fields (schema v7; zero/absent for classic single-table
	// cells). A service cell sets Mix to the client-simulation name and
	// Threads to the simulated client count. shards/batch echo the tier
	// shape; pm_fences_elided_per_op counts the per-op ordering points
	// absorbed by batch-tail fences (pm_fences_per_op already reflects the
	// saving); shard_batch_mean is the mean executor batch size;
	// shard_flush_saved the fences saved versus unbatched execution;
	// shard_imbalance the (max/mean − 1) spread of ops across shards;
	// svc_reconnects the connection-churn session count; shard_rows the
	// per-shard breakdown.
	Shards              int            `json:"shards,omitempty"`
	Batch               int            `json:"batch,omitempty"`
	PMFencesElidedPerOp float64        `json:"pm_fences_elided_per_op,omitempty"`
	ShardBatchMean      float64        `json:"shard_batch_mean,omitempty"`
	ShardFlushSaved     uint64         `json:"shard_flush_saved,omitempty"`
	ShardImbalance      float64        `json:"shard_imbalance,omitempty"`
	SvcReconnects       int64          `json:"svc_reconnects,omitempty"`
	ShardRows           []shardRowJSON `json:"shard_rows,omitempty"`
}

// shardRowJSON is one shard's row inside a service cell.
type shardRowJSON struct {
	Shard             int     `json:"shard"`
	Ops               uint64  `json:"ops"`
	FencesPerOp       float64 `json:"fences_per_op"`
	FencesElidedPerOp float64 `json:"fences_elided_per_op"`
	Count             int64   `json:"count"`
	LoadFactor        float64 `json:"load_factor"`
	Splits            uint64  `json:"splits"`
}

type benchJSON struct {
	Bench         string `json:"bench"`
	SchemaVersion int    `json:"schema_version"`
	Config        struct {
		Keyspace  uint64  `json:"keyspace"`
		Theta     float64 `json:"theta"`
		OpsPerRun int64   `json:"ops_per_run"`
		WarmupOps int64   `json:"warmup_ops"`
		Seed      uint64  `json:"seed"`
		CostScale int64   `json:"cost_scale"` // 0 = cost model disabled
		Shards    int     `json:"shards,omitempty"`
		Batch     int     `json:"batch,omitempty"`
	} `json:"config"`
	Results []cellJSON `json:"results"`
}

func main() {
	var (
		threads   = flag.Int("threads", 8, "max worker goroutines; the run covers the powers-of-two ladder up to this")
		ops       = flag.Int64("ops", 100_000, "measured operations per cell")
		warmup    = flag.Int64("warmup", -1, "warmup operations per cell (-1 = ops/10)")
		keyspace  = flag.Uint64("keyspace", 100_000, "preloaded keys; positive ops draw from this range")
		theta     = flag.Float64("theta", 0, "Zipfian skew in (0,1); 0 = uniform")
		mixFlag   = flag.String("mix", "", "comma-separated mixes to run in addition to the core suite; 'all' runs every registered mix")
		only      = flag.Bool("only", false, "run only the -mix list, skipping the core suite (quick experiments)")
		poolSize  = flag.Uint64("pool", 0, "PM pool bytes per cell (0 = sized automatically)")
		seed      = flag.Uint64("seed", 42, "workload seed; identical seeds replay identical op sequences")
		scale     = flag.Int64("scale", 1, "Optane cost-model speedup factor; 0 disables cost charging")
		out       = flag.String("out", "BENCH_dashbench.json", "JSON output path ('' skips writing)")
		list      = flag.Bool("list", false, "list registered mixes and exit")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /trace and /debug/pprof on this address for the duration of the run (e.g. localhost:6060)")
		recovery  = flag.Bool("recovery", false, "after each cell, reopen its durable image and report recovery phase timings")
		shards    = flag.Int("shards", 0, "run the service-tier suite over this many shards (power of two; 0 = skip the service suite)")
		batch     = flag.Int("batch", 16, "frontend batch size for service-tier cells (1 = unbatched)")
		sims      = flag.String("sims", "all", "comma-separated client simulations for the service suite; 'all' runs every registered one")
	)
	flag.Parse()

	// The engine's steady state allocates almost nothing, but the live heap
	// is tiny next to the (pointer-free) pool arenas, so default GC pacing
	// runs frequent cycles whose mark assists show up as multi-ms latency
	// outliers on small-core machines — simulator noise, not table
	// behavior. Relax pacing so the tail quantiles measure the table.
	debug.SetGCPercent(1000)

	if *list {
		for _, name := range workload.MixNames() {
			m, _ := workload.MixByName(name)
			fmt.Println(m)
		}
		return
	}

	mixes, err := selectMixes(*mixFlag, *only, *shards > 0)
	if err != nil {
		fatal(err)
	}
	simList, err := selectSims(*sims, *shards)
	if err != nil {
		fatal(err)
	}
	ladder := threadLadder(*threads)
	if *warmup < 0 {
		*warmup = *ops / 10
	}

	var live liveSource
	if *debugAddr != "" {
		srv, err := obs.Serve(*debugAddr, &live)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("dashbench: debug endpoint on http://%s (/metrics, /trace, /debug/pprof)\n", srv.Addr())
	}

	outJSON := benchJSON{Bench: "dashbench", SchemaVersion: 8}
	outJSON.Config.Keyspace = *keyspace
	outJSON.Config.Theta = *theta
	outJSON.Config.OpsPerRun = *ops
	outJSON.Config.WarmupOps = *warmup
	outJSON.Config.Seed = *seed
	outJSON.Config.CostScale = *scale
	outJSON.Config.Shards = *shards
	if *shards > 0 {
		outJSON.Config.Batch = *batch
	}

	fmt.Printf("dashbench: %d mixes × threads %v, %d ops/cell, keyspace %d, theta %g, cost scale %d\n",
		len(mixes), ladder, *ops, *keyspace, *theta, *scale)

	for _, mix := range mixes {
		fmt.Printf("\nmix %s\n", mix)
		fmt.Printf("  %7s %9s %9s %9s %9s %9s %10s %10s %9s %6s %5s %7s %7s %6s\n",
			"threads", "Mops/s", "p50(µs)", "p99(µs)", "p999(µs)", "max(µs)", "PMrd B/op", "PMwr B/op", "dev ns/op", "lf", "depth", "dchit%", "fhit%", "splits")
		for _, th := range ladder {
			cfg := bench.Config{
				Threads:         th,
				Ops:             *ops,
				WarmupOps:       *warmup,
				Keyspace:        *keyspace,
				Theta:           *theta,
				Mix:             mix,
				Seed:            *seed,
				PoolSize:        *poolSize,
				MeasureRecovery: *recovery,
				OnTable:         live.attach,
			}
			if *scale > 0 {
				cfg.Model = pmem.ScaledOptane(*scale)
			}
			res, err := bench.Run(cfg)
			if err != nil {
				fatal(fmt.Errorf("mix %s threads %d: %w", mix.Name, th, err))
			}
			fmt.Printf("  %7d %9.3f %9.1f %9.1f %9.1f %9.1f %10.1f %10.1f %9.0f %6.2f %5d %7.3f %7.3f %6d\n",
				th, res.MopsPerS,
				float64(res.P50NS)/1e3, float64(res.P99NS)/1e3,
				float64(res.P999NS)/1e3, float64(res.MaxNS)/1e3,
				res.ReadBytesPerOp, res.WriteBytesPerOp, res.DeviceNSPerOp,
				res.Table.LoadFactor, res.Table.GlobalDepth,
				100*res.Table.DirCacheHitRate, 100*res.Table.SegFilterHitRate,
				res.Table.Splits)
			if n := res.Counts.InsertOverflow; n > 0 {
				fmt.Printf("          ^ %d inserts rejected with segment overflow\n", n)
			}
			if n := res.Counts.InsertTooLarge; n > 0 {
				fmt.Printf("          ^ %d inserts rejected as too large\n", n)
			}
			if lb := res.Table.LogLiveBytes; lb > 0 {
				fmt.Printf("          ^ record log: %.1f MiB live (%d blobs), %.1f MiB free-listed, %.1f MiB chunks\n",
					float64(lb)/(1<<20), res.Table.LogLiveBlobs,
					float64(res.Table.LogFreeBytes)/(1<<20), float64(res.Table.LogChunkBytes)/(1<<20))
			}
			if *recovery {
				fmt.Printf("          ^ restart: crash open %.2fms (first op), fully recovered %.2fms, clean open %.2fms\n",
					float64(res.RecoveryOpenNS)/1e6, float64(res.RecoveryFullNS)/1e6,
					float64(res.RecoveryCleanOpenNS)/1e6)
				fmt.Printf("          ^ recovery work: %.2fms total (dir %.2f, segments %.2f, log %.2f, mirrors %.2f)\n",
					float64(res.RecoveryTotalNS)/1e6, float64(res.RecoveryDirNS)/1e6,
					float64(res.RecoverySegmentsNS)/1e6, float64(res.RecoveryLogNS)/1e6,
					float64(res.RecoveryMirrorsNS)/1e6)
			}
			outJSON.Results = append(outJSON.Results, toCell(res))
		}
	}

	// Service-tier suite: each simulation at the unbatched single-table
	// baseline (1, 1) then at the requested (-shards, -batch), so the fence
	// amortization is visible inside one BENCH file.
	if *shards > 0 {
		svcOps := *ops
		svcWarmup := *warmup
		for _, sim := range simList {
			fmt.Printf("\nservice sim %s (%d clients)\n", sim.Name, *threads)
			fmt.Printf("  %13s %9s %9s %9s %9s %10s %9s %9s %9s %7s %6s %6s\n",
				"shards×batch", "Mops/s", "p50(µs)", "p99(µs)", "p999(µs)", "fences/op", "elided/op", "dev ns/op", "batchmean", "imbal", "reconn", "lf")
			for _, shape := range [][2]int{{1, 1}, {*shards, *batch}} {
				cfg := bench.ServiceConfig{
					Shards:    shape[0],
					Batch:     shape[1],
					Clients:   *threads,
					Ops:       svcOps,
					WarmupOps: svcWarmup,
					Keyspace:  *keyspace,
					Theta:     *theta,
					Sim:       sim,
					Seed:      *seed,
					PoolSize:  *poolSize,
				}
				if *scale > 0 {
					cfg.Model = pmem.ScaledOptane(*scale)
				}
				res, err := bench.RunService(cfg)
				if err != nil {
					fatal(fmt.Errorf("sim %s shards %d batch %d: %w", sim.Name, shape[0], shape[1], err))
				}
				fmt.Printf("  %13s %9.3f %9.1f %9.1f %9.1f %10.3f %9.3f %9.0f %9.1f %7.3f %6d %6.2f\n",
					fmt.Sprintf("%d×%d", res.Shards, res.Batch), res.MopsPerS,
					float64(res.P50NS)/1e3, float64(res.P99NS)/1e3, float64(res.P999NS)/1e3,
					res.FencesPerOp, res.FencesElidedPerOp, res.DeviceNSPerOp, res.BatchSizeMean,
					res.Imbalance, res.Reconnects, res.LoadFactor)
				if res.Shards > 1 {
					for _, row := range res.PerShard {
						fmt.Printf("          shard %d: %d ops, %.3f fences/op, count %d, lf %.2f, %d splits\n",
							row.Shard, row.Ops, row.FencesPerOp, row.Count, row.LoadFactor, row.Splits)
					}
				}
				outJSON.Results = append(outJSON.Results, toSvcCell(res))
			}
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(outJSON, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %d results to %s\n", len(outJSON.Results), *out)
	}
}

// selectMixes resolves the mix set: the core suite plus -mix additions, or
// exactly the -mix list under -only. An empty -only list is allowed when the
// service suite runs instead (haveSvc).
func selectMixes(mixFlag string, only, haveSvc bool) ([]workload.Mix, error) {
	var names []string
	if !only {
		names = append(names, coreSuite...)
	}
	switch {
	case mixFlag == "all":
		names = workload.MixNames()
	case mixFlag != "":
		for _, n := range strings.Split(mixFlag, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	case only && !haveSvc:
		return nil, fmt.Errorf("-only requires -mix (or -shards for the service suite)")
	}
	var mixes []workload.Mix
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			continue
		}
		seen[n] = true
		m, ok := workload.MixByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown mix %q (registered: %s)", n, strings.Join(workload.MixNames(), ", "))
		}
		mixes = append(mixes, m)
	}
	return mixes, nil
}

// selectSims resolves the -sims list against the client-simulation registry;
// empty when the service suite is off.
func selectSims(simFlag string, shards int) ([]workload.ClientSim, error) {
	if shards <= 0 {
		return nil, nil
	}
	var names []string
	if simFlag == "all" || simFlag == "" {
		names = workload.ClientSimNames()
	} else {
		for _, n := range strings.Split(simFlag, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}
	var sims []workload.ClientSim
	for _, n := range names {
		s, ok := workload.ClientSimByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown sim %q (registered: %s)", n, strings.Join(workload.ClientSimNames(), ", "))
		}
		sims = append(sims, s)
	}
	return sims, nil
}

// threadLadder returns the powers of two up to and including max.
func threadLadder(max int) []int {
	if max < 1 {
		max = 1
	}
	var ladder []int
	for t := 1; t < max; t *= 2 {
		ladder = append(ladder, t)
	}
	return append(ladder, max)
}

func toCell(r *bench.Result) cellJSON {
	return cellJSON{
		Mix:       r.Mix,
		Threads:   r.Threads,
		Ops:       r.Ops,
		ElapsedNS: r.Elapsed.Nanoseconds(),
		MopsPerS:  r.MopsPerS,
		P50NS:     r.P50NS,
		P90NS:     r.P90NS,
		P99NS:     r.P99NS,
		P999NS:    r.P999NS,
		MaxNS:     r.MaxNS,
		MaxUS:     float64(r.MaxNS) / 1e3,
		MeanNS:    r.MeanNS,

		PMReadBytesPerOp:    r.ReadBytesPerOp,
		PMWriteBytesPerOp:   r.WriteBytesPerOp,
		PMFlushedBytesPerOp: r.FlushedBytesPerOp,
		PMFencesPerOp:       r.FencesPerOp,
		PMDeviceNSPerOp:     r.DeviceNSPerOp,
		PMDeviceNS:          r.PM.DeviceNS,

		Count:          r.Table.Count,
		GlobalDepth:    r.Table.GlobalDepth,
		Segments:       r.Table.Segments,
		LoadFactor:     r.Table.LoadFactor,
		StashShare:     r.Table.StashShare,
		AllocatedBytes: r.Table.AllocatedBytes,

		DirCacheHits:    r.Table.DirCacheHits,
		DirCacheMisses:  r.Table.DirCacheMisses,
		DirCacheHitRate: r.Table.DirCacheHitRate,
		DirCacheBytes:   r.Table.DirCacheBytes,

		SegFilterHits:    r.Table.SegFilterHits,
		SegFilterMisses:  r.Table.SegFilterMisses,
		SegFilterBypass:  r.Table.SegFilterBypass,
		SegFilterHitRate: r.Table.SegFilterHitRate,
		SegFilterBytes:   r.Table.SegFilterBytes,
		SegFilterChecks:  r.Table.SegFilterChecks,
		SegFilterHeals:   r.Table.SegFilterHeals,

		LogChunkBytes: r.Table.LogChunkBytes,
		LogLiveBytes:  r.Table.LogLiveBytes,
		LogLiveBlobs:  r.Table.LogLiveBlobs,
		LogFreeBytes:  r.Table.LogFreeBytes,

		Splits:          r.Table.Splits,
		SplitStallNS:    r.Table.SplitStallNS,
		SplitAssists:    r.Table.SplitAssists,
		InsertOverflows: r.Counts.InsertOverflow,
		InsertTooLarge:  r.Counts.InsertTooLarge,

		EpochRetired:   r.Table.EpochRetired,
		EpochReclaimed: r.Table.EpochReclaimed,
		EpochPending:   r.Table.EpochPending,
		LogFreeHits:    r.Table.LogFreeHits,
		LogFreeMisses:  r.Table.LogFreeMisses,

		RecoveryOpenNS:      r.RecoveryOpenNS,
		RecoveryFullNS:      r.RecoveryFullNS,
		RecoveryCleanOpenNS: r.RecoveryCleanOpenNS,
		RecoveryDirNS:       r.RecoveryDirNS,
		RecoverySegmentsNS:  r.RecoverySegmentsNS,
		RecoveryLogNS:       r.RecoveryLogNS,
		RecoveryMirrorsNS:   r.RecoveryMirrorsNS,
		RecoveryTotalNS:     r.RecoveryTotalNS,
	}
}

// toSvcCell renders a service-tier result as a cell row: Mix carries the
// simulation name, Threads the client count, and the shard_* fields the
// service-specific telemetry; table-shape fields aggregate across shards.
func toSvcCell(r *bench.ServiceResult) cellJSON {
	c := cellJSON{
		Mix:       r.Sim,
		Threads:   r.Clients,
		Ops:       r.Ops,
		ElapsedNS: r.Elapsed.Nanoseconds(),
		MopsPerS:  r.MopsPerS,
		P50NS:     r.P50NS,
		P90NS:     r.P90NS,
		P99NS:     r.P99NS,
		P999NS:    r.P999NS,
		MaxNS:     r.MaxNS,
		MaxUS:     float64(r.MaxNS) / 1e3,
		MeanNS:    r.MeanNS,

		PMReadBytesPerOp:    r.ReadBytesPerOp,
		PMWriteBytesPerOp:   r.WriteBytesPerOp,
		PMFlushedBytesPerOp: r.FlushedBytesPerOp,
		PMFencesPerOp:       r.FencesPerOp,
		PMDeviceNSPerOp:     r.DeviceNSPerOp,
		PMDeviceNS:          r.PM.DeviceNS,

		Count:       r.Count,
		GlobalDepth: r.GlobalDepthMax,
		Segments:    r.Segments,
		LoadFactor:  r.LoadFactor,

		InsertOverflows: r.Counts.InsertOverflow,
		InsertTooLarge:  r.Counts.InsertTooLarge,

		Shards:              r.Shards,
		Batch:               r.Batch,
		PMFencesElidedPerOp: r.FencesElidedPerOp,
		ShardBatchMean:      r.BatchSizeMean,
		ShardFlushSaved:     r.FlushSaved,
		ShardImbalance:      r.Imbalance,
		SvcReconnects:       r.Reconnects,
	}
	for _, row := range r.PerShard {
		c.ShardRows = append(c.ShardRows, shardRowJSON{
			Shard:             row.Shard,
			Ops:               row.Ops,
			FencesPerOp:       row.FencesPerOp,
			FencesElidedPerOp: row.FencesElidedPerOp,
			Count:             row.Count,
			LoadFactor:        row.LoadFactor,
			Splits:            row.Splits,
		})
	}
	return c
}

// liveSource adapts the cell currently running to obs.Source: bench.Run's
// OnTable hook attaches each cell's table as it is created, and the debug
// endpoint introspects whichever one is live (503 before the first cell).
type liveSource struct {
	tb atomic.Pointer[core.Table]
}

func (s *liveSource) attach(t *core.Table) { s.tb.Store(t) }

func (s *liveSource) Metrics() *obs.Registry {
	if t := s.tb.Load(); t != nil {
		return t.Metrics()
	}
	return nil
}

func (s *liveSource) TraceSnapshot() []obs.Event {
	if t := s.tb.Load(); t != nil {
		return t.TraceSnapshot()
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dashbench:", err)
	os.Exit(1)
}
