package obs

import "sync"

// Registry names the meters. Registration (Counter/Histogram/Gauge) is a
// startup-time operation under a mutex; callers keep the returned pointer
// and the hot path never touches the registry again. Snapshot walks
// everything for the bench harness's BENCH row and the live endpoint — one
// source of truth for both.
//
// A count that only grows is a Counter, so that Snapshot.Sub windows it; a
// Gauge is an amount that can move either way (bytes held, records pending),
// so that Snapshot.Add can sum it over tables. Shape and configuration
// (depths, sampling periods) are neither and are not registered.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	gauges   map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		gauges:   make(map[string]func() int64),
	}
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// RegisterCounter registers a counter its owner already holds (one embedded
// in a struct, say) under name; last registration wins.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] = c
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// Gauge registers a read-on-demand value under name (last registration
// wins). Gauges report instantaneous amounts — pending retires, mirror bytes,
// live records — that a monotone counter cannot express.
func (r *Registry) Gauge(name string, read func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = read
}

// Snapshot is a point-in-time view of every registered meter. Maps
// marshal to JSON with sorted keys, so serialized snapshots are stable.
type Snapshot struct {
	Counters map[string]uint64       `json:"counters"`
	Gauges   map[string]int64        `json:"gauges"`
	Hists    map[string]HistSnapshot `json:"hists"`
}

// Snapshot reads every meter. Each value is exact at some instant during
// the call (per-meter atomics); there is no cross-meter consistent cut.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters: make(map[string]uint64, len(r.counters)),
		Gauges:   make(map[string]int64, len(r.gauges)),
		Hists:    make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Total()
	}
	for name, read := range r.gauges {
		s.Gauges[name] = read()
	}
	for name, h := range r.hists {
		s.Hists[name] = h.Snapshot()
	}
	return s
}

// Sub returns the window s minus earlier: counters subtract with
// saturation, histograms subtract bucket-wise, gauges keep the later
// reading (they are instantaneous, not cumulative).
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	out := Snapshot{
		Counters: make(map[string]uint64, len(s.Counters)),
		Gauges:   make(map[string]int64, len(s.Gauges)),
		Hists:    make(map[string]HistSnapshot, len(s.Hists)),
	}
	for name, v := range s.Counters {
		e := earlier.Counters[name]
		if v < e {
			out.Counters[name] = 0
		} else {
			out.Counters[name] = v - e
		}
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range s.Hists {
		out.Hists[name] = h.Sub(earlier.Hists[name])
	}
	return out
}

// Add returns s plus o over the union of their meter names: counters and
// gauges add, histograms add bucket-wise. It sums the windows of several
// tables — a service's shards — into one, which is why a gauge must be an
// amount (see Registry).
func (s Snapshot) Add(o Snapshot) Snapshot {
	out := Snapshot{
		Counters: make(map[string]uint64, len(s.Counters)),
		Gauges:   make(map[string]int64, len(s.Gauges)),
		Hists:    make(map[string]HistSnapshot, len(s.Hists)),
	}
	for _, x := range []Snapshot{s, o} {
		for name, v := range x.Counters {
			out.Counters[name] += v
		}
		for name, v := range x.Gauges {
			out.Gauges[name] += v
		}
		for name, h := range x.Hists {
			out.Hists[name] = out.Hists[name].Add(h)
		}
	}
	return out
}
