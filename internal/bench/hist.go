package bench

import "dash/internal/obs"

// Hist is a latency histogram in the layout shared with the engine-side
// obs.Histogram (obs.BucketIndex: 16 linear sub-buckets per power of two, so
// a recorded value lands in a bucket whose floor is within 6.25% of it), so
// harness-measured and engine-measured distributions are directly
// comparable. It exists because per-client unsynchronized recording is
// cheaper than the concurrent one: each client goroutine records into its
// own Hist, the harness merges them after the run, and Snapshot hands the
// merged buckets to obs for the quantile walk.
//
// Not safe for concurrent use; use one per goroutine and Merge.
type Hist struct {
	counts [obs.NumBuckets]uint64
	total  uint64
	sum    uint64
	max    int64
}

// Record adds one observation of v nanoseconds.
func (h *Hist) Record(v int64) {
	h.counts[obs.BucketIndex(v)]++
	h.total++
	if v > 0 {
		h.sum += uint64(v)
	}
	if v > h.max {
		h.max = v
	}
}

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Total returns the number of recorded observations.
func (h *Hist) Total() uint64 { return h.total }

// Snapshot summarises the distribution: count, exact mean and max, and the
// bucket-floor quantiles (obs.HistSnapshot.Quantile for any other).
func (h *Hist) Snapshot() obs.HistSnapshot {
	return obs.NewHistSnapshot(append([]uint64(nil), h.counts[:]...), h.sum, h.max)
}
