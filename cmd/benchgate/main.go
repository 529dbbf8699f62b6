// Command benchgate is the perf-regression gate wired into `make ci` and
// the hosted CI workflow. It runs a small set of fixed, seeded benchmark
// cells (each seconds-long, with the full Optane cost model so PM traffic
// has a price) and fails — exit status 1 — when any tracked metric
// regresses past the thresholds committed in bench-gate.json.
//
// The cells guard the wins this repo has banked: the u64-insert cell keeps
// the inline fast path honest (p999/max insert latency from the
// incremental-split rework, PM bytes per op from persist batching, plus a
// load-factor floor so neither can be bought by splitting early), the
// var-insert cell guards the variable-length record path through the PM
// record log, and the read cells (u64-read, var-read, read-neg) guard the
// segment filter mirror's PM read-traffic elimination — read ceilings tight
// enough that serving probes from PM again would fail immediately.
// Latency thresholds carry deliberate headroom over locally
// measured values — shared CI runners are noisy and the cost model charges
// wall-clock spins — while the per-op traffic thresholds are tight, because
// they are nearly deterministic. Update bench-gate.json in the same PR as
// an intentional perf change, with the new measurement in the PR
// description.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"

	"dash/internal/bench"
	"dash/internal/workload"
)

type cellConfig struct {
	// Mix names a registered mix or client simulation
	// (workload.ClientSimByName).
	Mix       string  `json:"mix"`
	Threads   int     `json:"threads"`
	Ops       int64   `json:"ops"`
	WarmupOps int64   `json:"warmup_ops"`
	Keyspace  uint64  `json:"keyspace"`
	Theta     float64 `json:"theta"`
	Seed      uint64  `json:"seed"`
	Scale     int64   `json:"scale"`
	// Shards > 0 makes the cell a service cell at (Shards, Batch), which is
	// additionally run at the unbatched single-table baseline (1, 1) for the
	// svc_* ratio thresholds to compare against.
	Shards int `json:"shards,omitempty"`
	Batch  int `json:"batch,omitempty"`
}

// cellThresholds bounds a cell's metrics; a zero threshold is disabled and
// its metric is printed for information only.
type cellThresholds struct {
	P999NSMax            int64   `json:"p999_ns_max"`
	MaxNSMax             int64   `json:"max_ns_max"`
	PMWriteBytesPerOpMax float64 `json:"pm_write_bytes_per_op_max"`
	PMReadBytesPerOpMax  float64 `json:"pm_read_bytes_per_op_max"`
	LoadFactorMin        float64 `json:"load_factor_min"`
	// RecoveryOpenNSMax, when > 0, turns the cell into a restart-latency
	// gate: the cell's durable image is reopened on the crash path and
	// Open's wall time (time-to-first-op, before any lazy per-segment work)
	// must stay under the ceiling.
	RecoveryOpenNSMax int64 `json:"recovery_open_ns_max"`
	// Service-cell thresholds (Config.Shards > 0). SvcFenceRatioMax is the
	// ceiling on (batched PM fences per op) / (unbatched baseline fences
	// per op) — strictly below 1 asserts batching actually amortizes
	// ordering points. SvcMopsRatioMin is the floor on batched aggregate
	// throughput relative to the single-table baseline.
	SvcFenceRatioMax float64 `json:"svc_fence_ratio_max,omitempty"`
	SvcMopsRatioMin  float64 `json:"svc_mops_ratio_min,omitempty"`
}

type gateCell struct {
	Name string `json:"name"`
	// Why says what the cell guards and where its thresholds come from;
	// printed when the cell fails.
	Why        string         `json:"why"`
	Config     cellConfig     `json:"config"`
	Thresholds cellThresholds `json:"thresholds"`
}

type gateFile struct {
	Description string     `json:"description"`
	Cells       []gateCell `json:"cells"`
}

func main() {
	cfgPath := flag.String("config", "bench-gate.json", "gate cells + thresholds")
	flag.Parse()

	// Same GC pacing as dashbench: the gated tail quantiles must measure
	// the table, not the simulator's GC mark assists (see cmd/dashbench).
	debug.SetGCPercent(1000)

	data, err := os.ReadFile(*cfgPath)
	if err != nil {
		fatal(err)
	}
	var gf gateFile
	if err := json.Unmarshal(data, &gf); err != nil {
		fatal(fmt.Errorf("parse %s: %w", *cfgPath, err))
	}
	if len(gf.Cells) == 0 {
		fatal(fmt.Errorf("%s declares no gate cells", *cfgPath))
	}

	failed := false
	for _, cell := range gf.Cells {
		if !runCell(cell) {
			failed = true
			fmt.Printf("  why this cell exists: %s\n", cell.Why)
		}
	}
	if failed {
		fmt.Println("benchgate: FAIL — perf regression past committed thresholds " +
			"(if intentional, update bench-gate.json in this PR and explain why)")
		os.Exit(1)
	}
	fmt.Println("benchgate: PASS")
}

// runCell runs one gate cell and checks its thresholds. A service cell runs
// twice — at its (shards, batch) and at the unbatched single-table baseline
// (1, 1) — and is additionally checked on the ratios between the two: the
// batched run's fence count per op must be a committed fraction of the
// baseline's and its aggregate throughput must not collapse against it.
func runCell(cell gateCell) bool {
	cc, th := cell.Config, cell.Thresholds
	sim, ok := workload.ClientSimByName(cc.Mix)
	if !ok {
		fatal(fmt.Errorf("unknown mix or client sim %q in gate cell %q", cc.Mix, cell.Name))
	}
	run := func(shards, batch int) *bench.Result {
		res, err := bench.Run(bench.Config{
			Sim:             sim,
			Threads:         cc.Threads,
			Ops:             cc.Ops,
			WarmupOps:       cc.WarmupOps,
			Keyspace:        cc.Keyspace,
			Theta:           cc.Theta,
			Seed:            cc.Seed,
			CostScale:       cc.Scale,
			Shards:          shards,
			Batch:           batch,
			MeasureRecovery: th.RecoveryOpenNSMax > 0,
		})
		if err != nil {
			fatal(err)
		}
		return res
	}
	fmt.Printf("benchgate[%s]: %s, %d threads, %d ops, keyspace %d, seed %d, scale %d",
		cell.Name, sim.Name, cc.Threads, cc.Ops, cc.Keyspace, cc.Seed, cc.Scale)
	if cc.Shards > 0 {
		fmt.Printf(" — %d×%d vs 1×1 baseline", cc.Shards, cc.Batch)
	}
	fmt.Println()

	passed := true
	// check prints one metric against its bound (a ceiling, or a floor when
	// atLeast) and fails the cell when it is past it. A zero bound is
	// disabled: the metric prints as info, with nothing to have passed.
	check := func(name string, got, bound float64, atLeast bool, prec int, note string) {
		if bound <= 0 {
			fmt.Printf("  info %-26s %12.*f\n", name, prec, got)
			return
		}
		status, rel, bad := "ok  ", "<=", got > bound
		if atLeast {
			rel, bad = ">=", got < bound
		}
		if bad {
			status, passed = "FAIL", false
		}
		fmt.Printf("  %s %-26s %12.*f  (threshold %s %.*f%s)\n", status, name, prec, got, rel, prec, bound, note)
	}

	var base *bench.Result
	if cc.Shards > 0 {
		base = run(1, 1)
	}
	res := run(cc.Shards, cc.Batch)
	check("p999 latency ns", float64(res.P999NS), float64(th.P999NSMax), false, 1, "")
	check("max latency ns", float64(res.MaxNS), float64(th.MaxNSMax), false, 1, "")
	check("PM write bytes/op", res.WriteBytesPerOp, th.PMWriteBytesPerOpMax, false, 1, "")
	check("PM read bytes/op", res.ReadBytesPerOp, th.PMReadBytesPerOpMax, false, 1, "")
	if th.RecoveryOpenNSMax > 0 {
		check("crash open ns (first op)", float64(res.RecoveryOpenNS), float64(th.RecoveryOpenNSMax), false, 1, "")
		fmt.Printf("  info fully_recovered_ms=%.2f clean_open_ms=%.2f\n",
			float64(res.RecoveryFullNS)/1e6, float64(res.RecoveryCleanOpenNS)/1e6)
	}
	check("load factor", res.LoadFactor, th.LoadFactorMin, true, 2, "")
	m := res.Meters
	fmt.Printf("  info splits=%d stall_ms=%.2f overflows=%d too_large=%d log_live_mib=%.1f\n",
		m.Counters["split.completed"], float64(m.Counters["split.stall_ns"])/1e6, res.InsertOverflow, res.InsertTooLarge,
		float64(m.Gauges["varlog.live_bytes"])/(1<<20))

	if base != nil {
		ratio := func(a, b float64) float64 {
			if b > 0 {
				return a / b
			}
			return 0
		}
		check("fence ratio vs baseline", ratio(res.FencesPerOp, base.FencesPerOp), th.SvcFenceRatioMax, false, 3,
			fmt.Sprintf("; %.3f vs %.3f fences/op", res.FencesPerOp, base.FencesPerOp))
		check("throughput vs baseline", ratio(res.MopsPerS, base.MopsPerS), th.SvcMopsRatioMin, true, 3,
			fmt.Sprintf("; %.3f vs %.3f Mops/s", res.MopsPerS, base.MopsPerS))
		fmt.Printf("  info batch_mean=%.1f flush_saved=%d imbalance=%.3f reconnects=%d elided_per_op=%.3f\n",
			m.Hists["service.batch.size"].Mean, m.Counters["service.batch.flush_saved"], res.Imbalance, res.Reconnects,
			res.FencesElidedPerOp)
	}
	return passed
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
