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

func TestHistQuantilesAndMerge(t *testing.T) {
	var a, b Hist
	// 1000 observations: 0..999 split across two histograms.
	for v := int64(0); v < 1000; v++ {
		if v%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a.Total() != 1000 {
		t.Fatalf("merged total = %d, want 1000", a.Total())
	}
	s := a.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("snapshot count = %d, want 1000", s.Count)
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
	// Snapshot copies: recording afterwards must not move it.
	a.Record(1 << 30)
	if s.Quantile(1) >= 1<<30 || a.Snapshot().Max != 1<<30 {
		t.Fatal("snapshot aliases the live histogram")
	}
}

func TestHistEmpty(t *testing.T) {
	var h Hist
	if s := h.Snapshot(); s.P50 != 0 || s.Mean != 0 || s.Max != 0 || h.Total() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}
