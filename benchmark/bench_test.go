package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	debug.SetGCPercent(-1) // as main does: the benchmark collects where it chooses
	os.Exit(m.Run())
}

// The names, units, directions and bounds the code emits are the ones
// BENCHMARK.json declares, in the same order.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	var bj struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds: BENCHMARK.json %d, code %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("workloads: BENCHMARK.json has %d, code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bj.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workloads[%d]: BENCHMARK.json %+v, code %q: %q", i, got, w.name, w.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: BENCHMARK.json has %d, code %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := bj.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, code %+v", i, got, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: BENCHMARK.json has %d, code %d", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := bj.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, code %+v", i, got, d)
		}
	}
}

// Every workload runs at 1/50 scale in both modes, correct, with exactly the
// declared metrics.
func TestShortRuns(t *testing.T) {
	dir := t.TempDir()
	probes, err := runProbes()
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 7, seconds: 2, trace: traced, short: true, probes: probes}
			res, err := runWorkload(w, cfg, header{Seed: 7}, dir)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.FinalMismatches != 0 || res.LostAckedOps != 0 || len(res.Errors) != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d final_mismatches=%d lost_acked_ops=%d errors=%v",
					w.name, traced, res.Correct, res.Failed, res.FinalMismatches, res.LostAckedOps, res.Errors)
			}
			if res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d", w.name, traced, res.Attempted)
			}
			if !traced {
				for _, d := range endToEnd {
					if v, ok := res.Metrics[d.name]; !ok || v.Value <= 0 || v.Unit != d.unit {
						t.Errorf("%s: end-to-end %s = %+v, present %v", w.name, d.name, v, ok)
					}
				}
				continue
			}
			for name := range res.Metrics {
				if strings.HasPrefix(name, "service.") && w.driver != drvSvc {
					t.Errorf("%s: %s must be absent on a table workload", w.name, name)
				}
			}
			if w.driver == drvSvc {
				for _, d := range perLayer {
					if _, ok := res.Metrics[d.name]; strings.HasPrefix(d.name, "service.") && !ok {
						t.Errorf("%s: %s missing", w.name, d.name)
					}
				}
			}
			if live := res.Metrics["varlog.live_bytes"].Value; (live > 0) != (w.driver == drvVar) {
				t.Errorf("%s: varlog.live_bytes = %v", w.name, live)
			}
			for _, zero := range []string{"bench.failed_ops_share", "bench.final_mismatches", "bench.lost_acked_ops"} {
				if v, ok := res.Metrics[zero]; !ok || v.Value != 0 {
					t.Errorf("%s: %s = %+v", w.name, zero, v)
				}
			}
			b, err := os.ReadFile(filepath.Join(dir, "trace_"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				Spans      []span     `json:"spans"`
				Boundaries []boundary `json:"boundaries"`
			}
			if err := json.Unmarshal(b, &tr); err != nil {
				t.Fatalf("%s: trace: %v", w.name, err)
			}
			if len(tr.Spans) < 10 || len(tr.Boundaries) == 0 {
				t.Errorf("%s: trace has %d spans, %d boundaries", w.name, len(tr.Spans), len(tr.Boundaries))
			}
		}
	}
}

// The checks are live: one flipped expected reply and one flipped post-crash
// byte must surface as a failed op and a lost acknowledged op.
func TestSabotageIsCaught(t *testing.T) {
	cfg := runConfig{seed: 3, seconds: 2, short: true, sabotage: true}
	res, err := runWorkload(findWorkload("churn_zipf"), cfg, header{}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.LostAckedOps == 0 || res.Correct {
		t.Errorf("sabotage not caught: failed=%d lost_acked_ops=%d correct=%v", res.Failed, res.LostAckedOps, res.Correct)
	}
}

// The driver's line is the last line of standard output, with exactly the
// contract's keys and every declared metric of the mode.
func TestDriverLine(t *testing.T) {
	for _, mode := range []struct {
		trace string
		decls []metricDecl
	}{{"0", endToEnd}, {"1", perLayer}} {
		out := captureStdout(t, func() {
			if code := run([]string{"--workload", "insert_u64", "--seed", "5", "--seconds", "2", "--trace", mode.trace,
				"-short", "-out", filepath.Join(t.TempDir(), "r.json")}); code != 0 {
				t.Errorf("exit code %d", code)
			}
		})
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
			t.Errorf("driver line keys: %v", line)
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(mode.decls) {
			t.Errorf("trace %s: %d metrics, want %d", mode.trace, len(metrics), len(mode.decls))
		}
		for _, d := range mode.decls {
			if v, ok := metrics[d.name]; !ok || v.Unit != d.unit {
				t.Errorf("trace %s: metric %s = %+v, present %v", mode.trace, d.name, v, ok)
			}
		}
	}
}

// -compare accepts a file against itself and rejects a worsened metric.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	captureStdout(t, func() {
		if code := run([]string{"-short", "-seconds", "2", "-out", a}); code != 0 {
			t.Fatalf("run: exit code %d", code)
		}
	})
	captureStdout(t, func() {
		if code := compareFiles(a, a); code != 0 {
			t.Errorf("a file against itself: exit code %d", code)
		}
	})
	f, err := readResultFile(a)
	if err != nil {
		t.Fatal(err)
	}
	m := f.Workloads["read_u64"].Untraced.Metrics
	v := m["throughput_ops_s"]
	v.Value /= 2
	m["throughput_ops_s"] = v
	b := filepath.Join(dir, "b.json")
	raw, _ := json.Marshal(f)
	if err := os.WriteFile(b, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() {
		if code := compareFiles(a, b); code != 1 {
			t.Errorf("halved throughput: exit code %d, want 1", code)
		}
	})
	if !strings.Contains(out, "REGRESSED") {
		t.Errorf("no REGRESSED verdict in:\n%s", out)
	}
}

// Every call into the repository sits in engine.go.
func TestOnlyEngineImportsTheRepository(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f == "engine.go" || strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(b, []byte("\"dash/internal/")) {
			t.Errorf("%s imports the repository; only engine.go may", f)
		}
	}
}

// The same seed gives the same op stream; another seed gives another.
func TestGeneratorIsSeeded(t *testing.T) {
	stream := func(seed uint64) []op {
		w := findWorkload("var_churn")
		g := generator{m: newModel(0, 1000, true, seed), mix: w.mix, r: rng{s: mix64(seed * golden)}}
		ops := make([]op, 5000)
		g.fill(ops)
		return ops
	}
	if !reflect.DeepEqual(stream(1), stream(1)) {
		t.Error("same seed, different streams")
	}
	if reflect.DeepEqual(stream(1), stream(2)) {
		t.Error("different seeds, same stream")
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want := q * 100000
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%v) = %v, want about %v", q, got, want)
		}
	}
	for _, v := range []int64{0, 31, 32, 63, 64, 1000, 1 << 20, 1<<39 + 12345} {
		floor, width := histBounds(histIndex(v))
		if float64(v) < floor || float64(v) >= floor+width {
			t.Errorf("value %d not in its bucket [%v, %v)", v, floor, floor+width)
		}
	}
}

func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	f()
	w.Close()
	os.Stdout = old
	return <-done
}
