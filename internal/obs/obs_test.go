package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const goroutines, per = 8, 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Total(); got != goroutines*per {
		t.Fatalf("Total = %d, want %d", got, goroutines*per)
	}
}

func TestCounterNil(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Total() != 0 {
		t.Fatal("nil counter total != 0")
	}
}

func TestHistogramConcurrentAndSub(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := int64(0); v < 1000; v++ {
				h.Record(v)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 4000 {
		t.Fatalf("count = %d, want 4000", s.Count)
	}
	if s.Max != 999 {
		t.Fatalf("max = %d, want 999", s.Max)
	}
	if s.Mean < 499 || s.Mean > 500 {
		t.Fatalf("mean = %f, want ~499.5", s.Mean)
	}
	if p50 := s.P50; p50 < 400 || p50 > 520 {
		t.Fatalf("p50 = %d, want ~500 within bucket error", p50)
	}

	// A disjoint window on top: Sub must isolate it.
	for i := 0; i < 100; i++ {
		h.Record(1 << 20)
	}
	w := h.Snapshot().Sub(s)
	if w.Count != 100 {
		t.Fatalf("window count = %d, want 100", w.Count)
	}
	if w.P50 < 1<<19 {
		t.Fatalf("window p50 = %d, want ~1<<20", w.P50)
	}

	var nilH *Histogram
	nilH.Record(1)
	if nilH.Snapshot().Count != 0 {
		t.Fatal("nil histogram snapshot non-empty")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	a, b := r.Counter("x"), r.Counter("x")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Add(3)
	r.Histogram("h").Record(7)
	g := int64(0)
	r.Gauge("g", func() int64 { return g })

	s1 := r.Snapshot()
	if s1.Counters["x"] != 3 || s1.Gauges["g"] != 0 || s1.Hists["h"].Count != 1 {
		t.Fatalf("snapshot = %+v", s1)
	}

	a.Add(2)
	g = 9
	w := r.Snapshot().Sub(s1)
	if w.Counters["x"] != 2 {
		t.Fatalf("windowed counter = %d, want 2", w.Counters["x"])
	}
	if w.Gauges["g"] != 9 {
		t.Fatalf("windowed gauge = %d, want later value 9", w.Gauges["g"])
	}

	if _, err := json.Marshal(r.Snapshot()); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
}

// TestFlightWraparound fills tiny rings far past capacity from one goroutine
// and checks the snapshot retains exactly the newest events, time-ordered.
func TestFlightWraparound(t *testing.T) {
	f := NewFlightSized(4, 8)
	const total = 100
	for i := 0; i < total; i++ {
		// Explicit ascending timestamps; A carries the sequence number.
		f.RecordAt(int64(i), EvGet, PathMirrorHit, uint64(i), 0)
		f.RecordAt(int64(i), EvSplitTrigger, TagNone, uint64(i), 0)
	}
	ev := f.Snapshot()
	var ops, ctl []Event
	for _, e := range ev {
		switch e.Type {
		case EvGet:
			ops = append(ops, e)
		case EvSplitTrigger:
			ctl = append(ctl, e)
		default:
			t.Fatalf("unexpected event type %v", e.Type)
		}
	}
	// One goroutine records into one op shard: exactly the ring size
	// survives, and it must be the newest entries in order.
	if len(ops) != 4 || len(ctl) != 8 {
		t.Fatalf("retained %d op / %d ctl events, want 4 / 8", len(ops), len(ctl))
	}
	for i, e := range ops {
		if want := uint64(total - 4 + i); e.A != want {
			t.Fatalf("op[%d].A = %d, want %d (newest-last)", i, e.A, want)
		}
	}
	for i, e := range ctl {
		if want := uint64(total - 8 + i); e.A != want {
			t.Fatalf("ctl[%d].A = %d, want %d (newest-last)", i, e.A, want)
		}
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].TS < ev[i-1].TS {
			t.Fatalf("snapshot not time-ordered at %d", i)
		}
	}
}

// TestFlightConcurrentSnapshot hammers tiny rings from several writers while
// snapshotting, checking no snapshot ever returns a torn event: each event
// is written with B = A+1, an invariant a mixed read would break.
func TestFlightConcurrentSnapshot(t *testing.T) {
	f := NewFlightSized(2, 2)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-done:
					return
				default:
				}
				a := uint64(g)<<32 | i
				f.Record(EvInsert, OutcomeOK, a, a+1)
				f.Record(EvEpochAdvance, TagNone, a, a+1)
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		for _, e := range f.Snapshot() {
			if e.B != e.A+1 {
				t.Errorf("torn event: %+v", e)
			}
		}
	}
	close(done)
	wg.Wait()
}

type fakeSource struct {
	reg *Registry
	fr  *Flight
}

func (s fakeSource) Metrics() *Registry     { return s.reg }
func (s fakeSource) TraceSnapshot() []Event { return s.fr.Snapshot() }

func TestServe(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test.hits").Add(7)
	reg.Gauge("flight.op_sample_period", func() int64 { return 64 })
	fr := NewFlight()
	fr.Record(EvSplitPublish, TagNone, 42, 43)

	srv, err := Serve("127.0.0.1:0", fakeSource{reg: reg, fr: fr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "test.hits") {
		t.Fatalf("/metrics: code %d, body %q", code, body)
	}
	if code, body := get("/trace"); code != 200 || !strings.Contains(body, "split-publish") ||
		!strings.HasPrefix(body, "# ") || !strings.Contains(body, "sampled 1 in 64") {
		t.Fatalf("/trace: code %d, body %q", code, body)
	}
	if code, body := get("/trace?format=json"); code != 200 || !strings.Contains(body, `"a":42`) {
		t.Fatalf("/trace?format=json: code %d, body %q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: code %d", code)
	}

	// A source with nothing attached answers 503 until a table exists.
	empty, err := Serve("127.0.0.1:0", fakeSource{})
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	resp, err := http.Get("http://" + empty.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty /metrics: code %d, want 503", resp.StatusCode)
	}
}

// BenchmarkFlightRecord is the cost of one op-lane event, clock read
// included (run with -cpu 1,2; the lane is goroutine-sharded).
func BenchmarkFlightRecord(b *testing.B) {
	f := NewFlight()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for i := uint64(0); pb.Next(); i++ {
			f.Record(EvGet, PathMirrorHit, i, i)
		}
	})
}
