package bench

import (
	"testing"

	"dash/internal/obs"
)

func TestBucketRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 15, 16, 17, 31, 32, 63, 100, 1000, 1 << 20, 1<<40 + 12345} {
		idx := obs.BucketIndex(v)
		if idx < 0 || idx >= obs.NumBuckets {
			t.Fatalf("obs.BucketIndex(%d) = %d out of range", v, idx)
		}
		floor := obs.BucketFloor(idx)
		if floor > v {
			t.Errorf("obs.BucketFloor(%d) = %d > value %d", idx, floor, v)
		}
		// The floor must be within one sub-bucket (1/16) of the value.
		if v >= obs.SubPerOctave && float64(v-floor) > float64(v)/obs.SubPerOctave {
			t.Errorf("value %d floor %d off by more than 1/16", v, floor)
		}
		if idx > 0 && obs.BucketFloor(idx) <= obs.BucketFloor(idx-1) {
			t.Errorf("bucket floors not increasing at %d", idx)
		}
	}
}

// mergeClientHists folds the clients' latency histograms the way Run does
// after the measured phase: one snapshot per client, added onto a zero
// HistSnapshot.
func mergeClientHists(clients []*client) obs.HistSnapshot {
	var s obs.HistSnapshot
	for _, cl := range clients {
		s = s.Add(cl.hist.Snapshot())
	}
	return s
}

func TestHistQuantilesAndMerge(t *testing.T) {
	a, b := &client{}, &client{}
	// 1000 observations: 0..999 split across two clients.
	for v := int64(0); v < 1000; v++ {
		if v%2 == 0 {
			a.hist.Record(v)
		} else {
			b.hist.Record(v)
		}
	}
	s := mergeClientHists([]*client{a, b})
	if s.Count != 1000 {
		t.Fatalf("merged count = %d, want 1000", s.Count)
	}
	if s.Max != 999 {
		t.Fatalf("merged max = %d, want 999", s.Max)
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
	// The merge copies: recording afterwards must not move it.
	a.hist.Record(1 << 30)
	if s.Quantile(1) >= 1<<30 || mergeClientHists([]*client{a, b}).Max != 1<<30 {
		t.Fatal("merged snapshot aliases a live client histogram")
	}
}

func TestHistEmpty(t *testing.T) {
	for _, clients := range [][]*client{nil, {{}, {}}} {
		if s := mergeClientHists(clients); s.Count != 0 || s.P50 != 0 || s.Mean != 0 || s.Max != 0 {
			t.Fatalf("%d idle clients merge to %+v, want zeros", len(clients), s)
		}
	}
}
