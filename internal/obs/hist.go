package obs

import (
	"math/bits"
	"sync/atomic"
)

// The log-bucketed layout shared by obs.Histogram and bench.Hist: 16 linear
// sub-buckets per power of two, so any recorded value lands in a bucket
// whose floor is within 1/16 (6.25%) of it — plenty for p50/p99 reporting
// while a whole histogram is one fixed 8KiB array.
const (
	histSub = 16 // linear sub-buckets per octave

	// NumBuckets is the fixed bucket count of the shared layout;
	// SubPerOctave its linear resolution within each power of two.
	NumBuckets   = 1024
	SubPerOctave = histSub
)

// BucketIndex maps a value (typically nanoseconds) to its bucket.
func BucketIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // >= 4
	return histSub*(e-3) + int(v>>(uint(e)-4)) - histSub
}

// BucketFloor is the smallest value mapping to bucket idx.
func BucketFloor(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	e := idx/histSub + 3
	off := idx % histSub
	return int64(histSub+off) << (uint(e) - 4)
}

// Histogram is the concurrent counterpart of bench.Hist: the same bucket
// layout, but every bucket is an independent atomic so any goroutine can
// Record without coordination. A record is two uncontended atomic adds plus
// a rarely-contended max CAS; there is no total-order cut across buckets,
// which (as with Counter) is exactly enough for windowed quantiles.
// Methods are safe on a nil *Histogram.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Int64
}

// Record adds one observation of v (clamped below at 0).
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	h.counts[BucketIndex(v)].Add(1)
	h.total.Add(1)
	if v > 0 {
		h.sum.Add(uint64(v))
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot captures the distribution with summary quantiles precomputed.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	counts := make([]uint64, NumBuckets)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return NewHistSnapshot(counts, h.sum.Load(), h.max.Load())
}

// NewHistSnapshot summarises a raw bucket array in the shared layout (len
// NumBuckets; the snapshot keeps it) with the exact sum and max recorded
// alongside — how an unsynchronised recorder (bench.Hist) gets the same
// quantile walk as a Histogram.
func NewHistSnapshot(counts []uint64, sum uint64, max int64) HistSnapshot {
	s := HistSnapshot{Sum: sum, Max: max, Counts: counts}
	for _, c := range counts {
		s.Count += c
	}
	s.summarize()
	return s
}

// HistSnapshot is a point-in-time view of a Histogram, JSON-ready: the
// exported summary fields are derived from Counts when the snapshot is
// taken (and re-derived after Sub).
type HistSnapshot struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P99   int64   `json:"p99"`
	P999  int64   `json:"p999"`
	Max   int64   `json:"max"`

	// Counts is the raw bucket array (len NumBuckets); omitted from JSON.
	Counts []uint64 `json:"-"`
}

// Quantile returns the bucket floor of the q'th quantile (q in [0,1]), a
// conservative estimate within 6.25% below the true value; 0 when empty.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count-1))
	acc := uint64(0)
	for i, c := range s.Counts {
		acc += c
		if acc > rank {
			return BucketFloor(i)
		}
	}
	return s.Max
}

// Sub returns the window s minus earlier, re-deriving the summary fields
// from the subtracted buckets. Counter-style saturation applies per bucket;
// Max is the later snapshot's max (the true window max is unknowable from
// two cumulative snapshots, and the later max bounds it from above).
func (s HistSnapshot) Sub(earlier HistSnapshot) HistSnapshot {
	out := HistSnapshot{Max: s.Max, Counts: make([]uint64, NumBuckets)}
	sat := func(a, b uint64) uint64 {
		if a < b {
			return 0
		}
		return a - b
	}
	for i := range out.Counts {
		var e uint64
		if i < len(earlier.Counts) {
			e = earlier.Counts[i]
		}
		var c uint64
		if i < len(s.Counts) {
			c = s.Counts[i]
		}
		out.Counts[i] = sat(c, e)
		out.Count += out.Counts[i]
	}
	out.Sum = sat(s.Sum, earlier.Sum)
	out.summarize()
	return out
}

func (s *HistSnapshot) summarize() {
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	} else {
		s.Mean = 0
	}
	s.P50 = s.Quantile(0.50)
	s.P99 = s.Quantile(0.99)
	s.P999 = s.Quantile(0.999)
}
