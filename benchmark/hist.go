package main

import "math/bits"

// hist is a log-bucketed latency histogram: 32 linear sub-buckets per power
// of two, so a value lands in a bucket at most 1/32 (3.1 %) wide, and
// quantiles interpolate inside the bucket. One goroutine owns a hist; merge
// combines them after the fact. It is the benchmark's own type so that
// changes to obs.Histogram or bench.Hist cannot move reported latencies.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histBuckets = (41 - histSubBits) * histSub // values below 2^40 ns ≈ 18 min
)

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	e := bits.Len64(uint64(v)) - histSubBits - 1
	if e < 0 {
		e = 0
	}
	idx := e*histSub + int(uint64(v)>>uint(e))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histBounds returns the smallest value of bucket idx and the bucket's width.
func histBounds(idx int) (floor, width float64) {
	if idx < 2*histSub {
		return float64(idx), 1
	}
	e := idx/histSub - 1
	return float64(uint64(idx-e*histSub) << uint(e)), float64(uint64(1) << uint(e))
}

func (h *hist) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
	h.sum += uint64(v)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile returns the q'th quantile (q in [0,1]), interpolated linearly
// inside the bucket it falls in; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			floor, width := histBounds(i)
			return floor + width*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	floor, width := histBounds(histBuckets - 1)
	return floor + width
}
