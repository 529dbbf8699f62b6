// Command benchmark is the repository's benchmark: five fixed, seeded,
// closed-loop workloads driven through the public functions of service, core
// and pmem, every reply checked against an exact model, end-to-end metrics
// from an untraced run and per-layer metrics from a traced one. README.md in
// this directory documents the workloads, every metric and the frozen API;
// BENCHMARK.json at the repository root is the contract the driver reads.
//
//	bash benchmark/run.sh                       # all workloads, untraced then traced
//	bash benchmark/run.sh -workload read_u64 -trace 0 -seed 3 -seconds 6
//	bash benchmark/run.sh -compare A.json B.json
//
// With -trace given the run is one (workload, mode) cell and the last line
// of standard output is the driver's JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// header is the provenance every output carries.
type header struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Short      bool   `json:"short"`
	Clients    int    `json:"clients"`
}

// resultFile is what -out holds: per workload, the untraced run's
// end-to-end metrics and the traced run's per-layer metrics.
type resultFile struct {
	Header    header                     `json:"header"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Why      string  `json:"why"`
	Untraced *result `json:"untraced,omitempty"`
	Traced   *result `json:"traced,omitempty"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown" // the driver's checkout is not a git repository
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	names := fs.String("workload", "", "workload name[,name]; default all five")
	seconds := fs.Int("seconds", defaultSeconds, "nominal length of one measured phase; fixes the op counts")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; unset: both")
	out := fs.String("out", "out/result.json", "result file (both-modes runs); trace files go beside it")
	short := fs.Bool("short", false, "1/50 of every count, for tests")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds < 1 || *seconds > 60 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		return 2
	}
	traceSet := false
	fs.Visit(func(f *flag.Flag) { traceSet = traceSet || f.Name == "trace" })

	var todo []*workload
	if *names == "" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	}
	for _, n := range strings.Split(*names, ",") {
		if n == "" {
			continue
		}
		w := findWorkload(n)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", n)
			return 2
		}
		todo = append(todo, w)
	}

	// The collector runs only where the benchmark asks for it: between
	// windows and between repeats, never inside a measured span.
	debug.SetGCPercent(-1)
	hdr := header{Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: *seed, Seconds: *seconds, Short: *short, Clients: numClients}
	hj, _ := json.Marshal(hdr)
	fmt.Printf("benchmark %s\n", hj)
	outDir := filepath.Dir(*out)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	// The unit-cost probes run once, before the first workload; every traced
	// run reports them.
	var probes map[string]float64
	if !traceSet || *trace == 1 {
		var err error
		if probes, err = runProbes(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}

	file := resultFile{Header: hdr, Workloads: map[string]*workloadReport{}}
	var last *result
	bad := false
	for _, w := range todo {
		rep := &workloadReport{Why: w.why}
		file.Workloads[w.name] = rep
		for _, traced := range []bool{false, true} {
			if traceSet && traced != (*trace == 1) {
				continue
			}
			cfg := runConfig{seed: *seed, seconds: *seconds, trace: traced, short: *short, probes: probes}
			res, err := runWorkload(w, cfg, hdr, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			printResult(res)
			if traced {
				rep.Traced = res
			} else {
				rep.Untraced = res
			}
			last = res
			bad = bad || res.FinalMismatches > 0 || res.LostAckedOps > 0
		}
	}
	if !traceSet {
		b, _ := json.MarshalIndent(file, "", " ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println("wrote", *out)
	} else {
		// The driver's line: exactly these keys, every declared metric of the mode.
		decls := endToEnd
		if last.Trace {
			decls = perLayer
		}
		line, _ := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int64                  `json:"attempted"`
			Failed    int64                  `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, (&metricSet{decls: decls, values: last.Metrics}).complete()})
		fmt.Println(string(line))
	}
	if bad {
		return 1
	}
	return 0
}

// printResult prints one run's metrics by name, with units.
func printResult(r *result) {
	mode, decls := "untraced: end-to-end metrics", endToEnd
	if r.Trace {
		mode, decls = "traced: per-layer metrics", perLayer
	}
	fmt.Printf("\n== %s (%s) ==\n", r.Workload, mode)
	fmt.Printf("   preload %d, pools %d MiB, %d windows x %d ops, measured %.2f s, run %.2f s, set-ups %.2f s\n",
		r.Preload, r.PoolBytes>>20, r.Windows, r.OpsPerWindow, r.MeasuredS, r.WallS, r.SetupS)
	fmt.Printf("   window ops/s %.0f\n", r.WindowOpsS)
	fmt.Printf("   window p50 ns %.0f\n", r.WindowP50NS)
	fmt.Printf("   window p99 ns %.0f\n", r.WindowP99NS)
	if r.Trace {
		fmt.Printf("   restart open ms %.3f\n", r.RestartOpenMS)
		fmt.Printf("   restart full ms %.3f\n", r.RestartFullMS)
	}
	for _, d := range decls {
		if v, ok := r.Metrics[d.name]; ok {
			fmt.Printf("   %-32s %16.6g %s\n", d.name, v.Value, v.Unit)
		} else {
			fmt.Printf("   %-32s %16s\n", d.name, "n/a")
		}
	}
	fmt.Printf("   correct=%v attempted=%d failed=%d failed_ops_share=%g final_mismatches=%d lost_acked_ops=%d\n",
		r.Correct, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.FinalMismatches, r.LostAckedOps)
	if len(r.Errors) > 0 {
		keys := make([]string, 0, len(r.Errors))
		for k := range r.Errors {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("   unexpected %s: %d\n", k, r.Errors[k])
		}
	}
}
