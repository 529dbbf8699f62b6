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

// TestHistSnapshotAdd merges two recorders' snapshots, as the bench harness
// merges its clients': buckets, count and sum add, Max is the larger, the
// quantiles are re-derived from the merged buckets, and subtracting one part
// gives back the other.
func TestHistSnapshotAdd(t *testing.T) {
	var a, b Histogram
	// 1000 observations: 0..999 split across two histograms.
	for v := int64(0); v < 1000; v++ {
		if v%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	s := sa.Add(sb)
	if s.Count != 1000 || s.Sum != 999*1000/2 || s.Max != 999 {
		t.Fatalf("merged count %d sum %d max %d, want 1000, 499500, 999", s.Count, s.Sum, s.Max)
	}
	for i := range s.Counts {
		if s.Counts[i] != sa.Counts[i]+sb.Counts[i] {
			t.Fatalf("bucket %d = %d, want %d + %d", i, s.Counts[i], sa.Counts[i], sb.Counts[i])
		}
	}
	if s.Mean < 499 || s.Mean > 500 {
		t.Fatalf("mean = %f, want ~499.5", s.Mean)
	}
	if s.P50 < 400 || s.P50 > 520 {
		t.Fatalf("p50 = %d, want ~500 within bucket error", s.P50)
	}
	if s.P99 < 900 || s.P99 > 999 {
		t.Fatalf("p99 = %d, want ~990 within bucket error", s.P99)
	}
	if q0, q1 := s.Quantile(0), s.Quantile(1); q0 != 0 || q1 < 930 {
		t.Fatalf("extreme quantiles = %d, %d", q0, q1)
	}

	// Add then Sub is the identity on everything but Max, which a window
	// keeps from its later snapshot (a bound, see Sub).
	back := s.Sub(sb)
	if back.Count != sa.Count || back.Sum != sa.Sum || back.Mean != sa.Mean ||
		back.P50 != sa.P50 || back.P99 != sa.P99 || back.P999 != sa.P999 {
		t.Fatalf("(a+b)−b = %+v, want a's summary", back)
	}
	for i := range back.Counts {
		if back.Counts[i] != sa.Counts[i] {
			t.Fatalf("(a+b)−b bucket %d = %d, want %d", i, back.Counts[i], sa.Counts[i])
		}
	}

	// The empty snapshot is Add's identity and merges to zeros.
	if z := (HistSnapshot{}).Add(HistSnapshot{}); z.Count != 0 || z.P50 != 0 || z.Mean != 0 || z.Max != 0 {
		t.Fatalf("empty merge = %+v", z)
	}
	if e := (HistSnapshot{}).Add(sa); e.Count != sa.Count || e.P99 != sa.P99 || e.Max != sa.Max {
		t.Fatalf("empty + a = %+v, want a", e)
	}
	// Snapshots copy: recording afterwards moves neither part nor sum.
	a.Record(1 << 30)
	if s.Quantile(1) >= 1<<30 || sa.Max == 1<<30 || a.Snapshot().Max != 1<<30 {
		t.Fatal("snapshot aliases the live histogram")
	}
}

// TestSnapshotAdd sums two registries' snapshots as the bench harness sums
// its tables': counters, gauges and histograms add over the union of the
// names, and subtracting one part again gives back the other's counters and
// buckets. A counter registered by pointer is windowed like any other.
func TestSnapshotAdd(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	var held Counter
	held.Add(6)
	r1.RegisterCounter("held", &held)
	r1.Counter("x").Add(3)
	r2.Counter("x").Add(4)
	r2.Counter("only2").Add(1)
	r1.Gauge("g", func() int64 { return 5 })
	r2.Gauge("g", func() int64 { return -2 })
	r1.Histogram("h").Record(10)
	r2.Histogram("h").Record(1000)

	s1, s2 := r1.Snapshot(), r2.Snapshot()
	sum := s1.Add(s2)
	if sum.Counters["x"] != 7 || sum.Counters["only2"] != 1 || sum.Counters["held"] != 6 || sum.Gauges["g"] != 3 {
		t.Fatalf("sum = %+v", sum)
	}
	if h := sum.Hists["h"]; h.Count != 2 || h.Sum != 1010 || h.Max != 1000 || h.P50 != 10 {
		t.Fatalf("summed histogram = %+v", h)
	}

	back := sum.Sub(s2)
	if back.Counters["x"] != 3 || back.Counters["only2"] != 0 || back.Counters["held"] != 6 {
		t.Fatalf("(s1+s2)−s2 counters = %v, want s1's", back.Counters)
	}
	if h := back.Hists["h"]; h.Count != 1 || h.Sum != 10 || h.P50 != 10 {
		t.Fatalf("(s1+s2)−s2 histogram = %+v, want s1's", h)
	}

	held.Add(2)
	if w := r1.Snapshot().Sub(s1); w.Counters["held"] != 2 {
		t.Fatalf("windowed registered counter = %d, want 2", w.Counters["held"])
	}
}

// TestFlightWraparound fills tiny rings far past capacity and checks the
// snapshot retains exactly the newest events, time-ordered. The op events go
// into op-lane shard 0 directly: RecordAt picks the shard from the calling
// goroutine's stack address (GoShard), which a stack growth mid-loop moves,
// and events spread over two shards would retain more than one ring holds.
func TestFlightWraparound(t *testing.T) {
	f := NewFlightSized(4, 8)
	const total = 100
	for i := 0; i < total; i++ {
		// Explicit ascending timestamps; A carries the sequence number.
		f.opLane(0).record(int64(i), EvGet, PathMirrorHit, uint64(i), 0)
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
	// One op shard: exactly the ring size survives, and it must be the
	// newest entries in order.
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

// allocatedLanes counts the op-lane shards that have a ring.
func allocatedLanes(f *Flight) int {
	n := 0
	for i := range f.ops {
		if f.ops[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestFlightLanesAllocatedOnFirstRecord: a fresh recorder holds only the
// control lane; an op event allocates its shard's ring and nothing else, and
// control events allocate no op shard.
func TestFlightLanesAllocatedOnFirstRecord(t *testing.T) {
	f := NewFlight()
	f.Record(EvSplitTrigger, TagNone, 1, 2)
	if n := allocatedLanes(f); n != 0 {
		t.Fatalf("a recorder with control events only holds %d op shards, want 0", n)
	}
	f.Record(EvGet, PathMirrorHit, 3, 4)
	if n := allocatedLanes(f); n != 1 {
		t.Fatalf("one op event allocated %d op shards, want 1", n)
	}
	if ev := f.Snapshot(); len(ev) != 2 {
		t.Fatalf("snapshot = %v, want both events", ev)
	}
}

// TestFlightLaneFirstRecordsRace: goroutines making the first records of one
// shard concurrently install one ring between them, and every event lands in
// it (a loser recording into a ring it failed to install would lose its
// event).
func TestFlightLaneFirstRecordsRace(t *testing.T) {
	const writers = 8
	f := NewFlightSized(writers, 2)
	start := make(chan struct{})
	rings := make([]*ring, writers)
	var wg sync.WaitGroup
	for g := range rings {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rings[g] = f.opLane(5)
			rings[g].record(int64(g), EvInsert, OutcomeOK, uint64(g), 0)
		}()
	}
	close(start)
	wg.Wait()
	for g, r := range rings {
		if r != rings[0] {
			t.Fatalf("writer %d recorded into ring %p, writer 0 into %p", g, r, rings[0])
		}
	}
	if n := allocatedLanes(f); n != 1 {
		t.Fatalf("%d op shards allocated, want 1", n)
	}
	if ev := f.Snapshot(); len(ev) != writers {
		t.Fatalf("snapshot holds %d events, want %d", len(ev), writers)
	}
}

type fakeSource struct {
	reg    *Registry
	fr     *Flight
	period int
}

func (s fakeSource) Metrics() *Registry     { return s.reg }
func (s fakeSource) TraceSnapshot() []Event { return s.fr.Snapshot() }
func (s fakeSource) OpSamplePeriod() int    { return s.period }

func TestServe(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test.hits").Add(7)
	fr := NewFlight()
	fr.Record(EvSplitPublish, TagNone, 42, 43)

	srv, err := Serve("127.0.0.1:0", fakeSource{reg: reg, fr: fr, period: 64})
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
