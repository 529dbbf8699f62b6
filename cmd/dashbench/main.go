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
// JSON for the repo's perf-trajectory tracking: each row is the cell's
// bench.Result, marshalled as is. -recovery additionally reopens each cell's
// durable image (a service cell's through service.Open) and reports recovery
// phase timings, and -debug-addr serves the live table's metrics registry,
// flight-recorder trace and pprof over HTTP while the run progresses.
//
// -shards N additionally runs the service-tier suite: each
// client-simulation profile (-sims, default all of workload.ClientSims) is
// driven through a service.Shards + service.Frontend stack twice — once at
// the single-table baseline (1 shard) and once over N shards — so one BENCH
// file shows what sharding buys. Both suites run through the one bench.Run;
// service cells report client-observed Submit→Wait latency, table shape and
// telemetry summed over shards, plus per-shard rows.
//
// Example:
//
//	go run ./cmd/dashbench -threads 8 -mix balanced -debug-addr localhost:6060
//	go run ./cmd/dashbench -only -shards 4 -sims svc-balanced
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
	"dash/internal/workload"
)

// coreSuite is the fixed mix set every full run includes, keeping BENCH
// files comparable PR to PR.
var coreSuite = []string{"insert", "read", "read-neg", "balanced", "ycsb-b"}

type benchJSON struct {
	Bench         string `json:"bench"`
	SchemaVersion int    `json:"schema_version"`
	Config        struct {
		Keyspace  uint64  `json:"keyspace"`
		Theta     float64 `json:"theta"`
		OpsPerRun int64   `json:"ops_per_run"`
		WarmupOps int64   `json:"warmup_ops"`
		Seed      uint64  `json:"seed"`
		Model     bool    `json:"model"` // false = cost model disabled
		Shards    int     `json:"shards,omitempty"`
	} `json:"config"`
	Results []*bench.Result `json:"results"`
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
		model     = flag.Bool("model", true, "charge the Optane cost model on the measured phase; -model=false disables cost charging")
		out       = flag.String("out", "BENCH_dashbench.json", "JSON output path ('' skips writing)")
		list      = flag.Bool("list", false, "list registered mixes and exit")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /trace and /debug/pprof on this address for the duration of the run (e.g. localhost:6060)")
		recovery  = flag.Bool("recovery", false, "after each cell, reopen its durable image and report recovery phase timings")
		shards    = flag.Int("shards", 0, "run the service-tier suite over this many shards (power of two; 0 = skip the service suite)")
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
	var simList []workload.ClientSim
	if *shards > 0 {
		names := workload.ClientSimNames()
		if *sims != "all" && *sims != "" {
			names = strings.Split(*sims, ",")
		}
		if simList, err = resolve(names); err != nil {
			fatal(err)
		}
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

	outJSON := benchJSON{Bench: "dashbench", SchemaVersion: 10}
	outJSON.Config.Keyspace = *keyspace
	outJSON.Config.Theta = *theta
	outJSON.Config.OpsPerRun = *ops
	outJSON.Config.WarmupOps = *warmup
	outJSON.Config.Seed = *seed
	outJSON.Config.Model = *model
	outJSON.Config.Shards = *shards

	// run executes one cell — every cell of both suites goes through here —
	// prints what any cell may have to say below its row, and files the
	// result, which is the BENCH row, as is.
	run := func(sim workload.ClientSim, clients, shards int, row func(*bench.Result)) {
		res, err := bench.Run(bench.Config{
			Sim:             sim,
			Threads:         clients,
			Ops:             *ops,
			WarmupOps:       *warmup,
			Keyspace:        *keyspace,
			Theta:           *theta,
			Seed:            *seed,
			PoolSize:        *poolSize,
			Model:           *model,
			Shards:          shards,
			MeasureRecovery: *recovery,
			OnTable:         live.attach,
		})
		if err != nil {
			fatal(fmt.Errorf("%s threads %d shards %d: %w", sim.Name, clients, shards, err))
		}
		row(res)
		if n := res.InsertOverflow; n > 0 {
			fmt.Printf("          ^ %d inserts rejected with segment overflow\n", n)
		}
		if n := res.InsertTooLarge; n > 0 {
			fmt.Printf("          ^ %d inserts rejected as too large\n", n)
		}
		if g := res.Meters.Gauges; g["varlog.live_bytes"] > 0 {
			fmt.Printf("          ^ record log: %.1f MiB live, %.1f MiB free-listed\n",
				float64(g["varlog.live_bytes"])/(1<<20), float64(g["varlog.free_bytes"])/(1<<20))
		}
		if rec := res.Recovery; rec != nil {
			ms := func(name string) float64 { return float64(rec.Counters["recovery."+name+"_ns"]) / 1e6 }
			fmt.Printf("          ^ restart: crash open %.2fms (first op), fully recovered %.2fms, clean open %.2fms\n",
				float64(res.RecoveryOpenNS)/1e6, float64(res.RecoveryFullNS)/1e6,
				float64(res.RecoveryCleanOpenNS)/1e6)
			fmt.Printf("          ^ recovery work: %.2fms total (dir %.2f, segments %.2f, log %.2f, mirrors %.2f)\n",
				ms("total"), ms("directory"), ms("segments"), ms("log"), ms("mirrors"))
		}
		outJSON.Results = append(outJSON.Results, res)
	}

	fmt.Printf("dashbench: %d mixes × threads %v, %d ops/cell, keyspace %d, theta %g, cost model %v\n",
		len(mixes), ladder, *ops, *keyspace, *theta, *model)

	for _, mix := range mixes {
		fmt.Printf("\nmix %s\n", mix.Mix)
		fmt.Printf("  %7s %9s %9s %9s %9s %9s %10s %10s %9s %6s %5s %7s %7s %6s\n",
			"threads", "Mops/s", "p50(µs)", "p99(µs)", "p999(µs)", "max(µs)", "PMrd B/op", "PMwr B/op", "dev ns/op", "lf", "depth", "dchit%", "fhit%", "splits")
		for _, th := range ladder {
			run(mix, th, 0, func(res *bench.Result) {
				fmt.Printf("  %7d %9.3f %9.1f %9.1f %9.1f %9.1f %10.1f %10.1f %9.0f %6.2f %5d %7.3f %7.3f %6d\n",
					th, res.MopsPerS,
					float64(res.P50NS)/1e3, float64(res.P99NS)/1e3,
					float64(res.P999NS)/1e3, float64(res.MaxNS)/1e3,
					res.ReadBytesPerOp, res.WriteBytesPerOp, res.DeviceNSPerOp,
					res.LoadFactor, res.GlobalDepth,
					100*hitRate(res.Meters, "dircache"), 100*hitRate(res.Meters, "segfilter"),
					res.Meters.Counters["split.completed"])
			})
		}
	}

	// Service-tier suite: each simulation at the single-table baseline
	// (1 shard) then over -shards, so what sharding buys is visible inside
	// one BENCH file.
	for _, sim := range simList {
		fmt.Printf("\nservice sim %s (%d clients)\n", sim.Name, *threads)
		fmt.Printf("  %6s %9s %9s %9s %9s %10s %9s %7s %6s %6s\n",
			"shards", "Mops/s", "p50(µs)", "p99(µs)", "p999(µs)", "fences/op", "dev ns/op", "imbal", "reconn", "lf")
		for _, n := range []int{1, *shards} {
			run(sim, *threads, n, func(res *bench.Result) {
				fmt.Printf("  %6d %9.3f %9.1f %9.1f %9.1f %10.3f %9.0f %7.3f %6d %6.2f\n",
					res.Shards, res.MopsPerS,
					float64(res.P50NS)/1e3, float64(res.P99NS)/1e3, float64(res.P999NS)/1e3,
					res.FencesPerOp, res.DeviceNSPerOp, res.Imbalance, res.Reconnects, res.LoadFactor)
				if res.Shards > 1 {
					for _, row := range res.PerShard {
						fmt.Printf("          shard %d: %d ops, %.3f fences/op, count %d, lf %.2f, %d splits\n",
							row.Shard, row.Ops, row.FencesPerOp, row.Count, row.LoadFactor, row.Splits)
					}
				}
			})
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

// hitRate is a tier's hits over its hits and misses in m (1 when idle).
func hitRate(m obs.Snapshot, tier string) float64 {
	hits, misses := m.Counters[tier+".hits"], m.Counters[tier+".misses"]
	if hits+misses == 0 {
		return 1
	}
	return float64(hits) / float64(hits+misses)
}

// selectMixes resolves the mix set: the core suite plus -mix additions, or
// exactly the -mix list under -only. An empty -only list is allowed when the
// service suite runs instead (haveSvc).
func selectMixes(mixFlag string, only, haveSvc bool) ([]workload.ClientSim, error) {
	var names []string
	if !only {
		names = append(names, coreSuite...)
	}
	switch {
	case mixFlag == "all":
		names = workload.MixNames()
	case mixFlag != "":
		names = append(names, strings.Split(mixFlag, ",")...)
	case only && !haveSvc:
		return nil, fmt.Errorf("-only requires -mix (or -shards for the service suite)")
	}
	return resolve(names)
}

// resolve looks each name up once (duplicates dropped) among the registered
// mixes and client simulations; a mix runs as a simulation with no stressor.
func resolve(names []string) ([]workload.ClientSim, error) {
	var sims []workload.ClientSim
	seen := map[string]bool{}
	for _, n := range names {
		n = strings.TrimSpace(n)
		if seen[n] {
			continue
		}
		seen[n] = true
		s, ok := workload.ClientSimByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown mix or sim %q (mixes: %s; sims: %s)", n,
				strings.Join(workload.MixNames(), ", "), strings.Join(workload.ClientSimNames(), ", "))
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

// liveSource adapts the cell currently running to obs.Source: bench.Run's
// OnTable hook attaches every table a cell creates, and the debug endpoint
// introspects the latest one (a sharded cell's last shard; 503 before the
// first cell).
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

func (s *liveSource) OpSamplePeriod() int {
	if t := s.tb.Load(); t != nil {
		return t.OpSamplePeriod()
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dashbench:", err)
	os.Exit(1)
}
