package main

// compare.go is -compare A.json B.json: per workload × end-to-end metric it
// prints both values, the relative change, the metric's bound (metrics.go,
// which bench_test.go holds equal to BENCHMARK.json) and a verdict, and it
// exits non-zero on any regression or on a raised share of failed
// operations. It is the tool the repeatability of the benchmark is checked
// with.

import (
	"encoding/json"
	"fmt"
	"os"
)

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// untraced is the workload's untraced run, nil when the file has none.
func (f *resultFile) untraced(name string) *result {
	if rep := f.Workloads[name]; rep != nil {
		return rep.Untraced
	}
	return nil
}

func compareFiles(pathA, pathB string) int {
	a, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	regressed := 0
	fmt.Printf("%-14s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "delta", "bound", "verdict")
	for _, w := range workloads {
		ua, ub := a.untraced(w.name), b.untraced(w.name)
		if ua == nil && ub == nil {
			continue // not run in either file
		}
		if ua == nil || ub == nil {
			fmt.Printf("%-14s missing from one file\n", w.name)
			regressed++
			continue
		}
		for _, m := range endToEnd {
			va, vb := ua.Metrics[m.name].Value, ub.Metrics[m.name].Value
			delta := (vb - va) / va
			worse := delta // positive = worse
			if m.better == "higher" {
				worse = -delta
			}
			verdict := "ok"
			switch {
			case worse > m.bound:
				verdict = "REGRESSED"
				regressed++
			case worse < -m.bound:
				verdict = "improved"
			}
			fmt.Printf("%-14s %-26s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n", w.name, m.name, va, vb, 100*delta, 100*m.bound, verdict)
		}
		sa := float64(ua.Failed) / float64(max(ua.Attempted, 1))
		sb := float64(ub.Failed) / float64(max(ub.Attempted, 1))
		verdict := "ok"
		if sb > sa || ub.FinalMismatches > ua.FinalMismatches || ub.LostAckedOps > ua.LostAckedOps {
			verdict = "REGRESSED"
			regressed++
		}
		fmt.Printf("%-14s %-26s failed share %g -> %g, final mismatches %d -> %d, lost acked ops %d -> %d  %s\n",
			w.name, "correctness", sa, sb, ua.FinalMismatches, ub.FinalMismatches, ua.LostAckedOps, ub.LostAckedOps, verdict)
	}
	if regressed > 0 {
		fmt.Printf("%d regression(s)\n", regressed)
		return 1
	}
	fmt.Println("no regression")
	return 0
}
