package pmem

import "dash/internal/obs"

// Stats accumulates PM traffic at cacheline granularity. Each counter is a
// goroutine-sharded obs.Counter, so accounting cannot itself become the
// scalability bottleneck it measures: increments land on goroutine-private
// cachelines and reads sum the shards.
type Stats struct {
	readLines    obs.Counter
	writeLines   obs.Counter
	flushes      obs.Counter
	fences       obs.Counter
	elidedFences obs.Counter

	// deviceNS is the simulated device time the cost model charged, by what
	// it was charged for: the nanoseconds the model decided on before it
	// spun, not the wall time the spin took.
	deviceNS [numDeviceKinds]obs.Counter
}

// The kinds of device time: the four base latencies, and the bandwidth
// queueing a charge waited beyond its base latency.
const (
	devRead = iota
	devWrite
	devFlush
	devFence
	devQueue
	numDeviceKinds
)

var deviceKindNames = [numDeviceKinds]string{"read", "write", "flush", "fence", "queue"}

func (s *Stats) addRead(lines uint64)  { s.readLines.Add(lines) }
func (s *Stats) addWrite(lines uint64) { s.writeLines.Add(lines) }
func (s *Stats) addFlush(lines uint64) { s.flushes.Add(lines) }
func (s *Stats) addFence()             { s.fences.Inc() }
func (s *Stats) addElidedFence()       { s.elidedFences.Inc() }

// addDevice books one charge: its base latency under kind, and under
// devQueue whatever a saturated device made it wait beyond that.
func (s *Stats) addDevice(kind int, c charged) {
	s.deviceNS[kind].Add(uint64(c.baseNS))
	if c.queueNS > 0 {
		s.deviceNS[devQueue].Add(uint64(c.queueNS))
	}
}

// Register exposes the pool's traffic counters on an obs.Registry under
// pmem.* names, so the engine's metrics endpoint shows PM traffic alongside
// the table-level meters.
func (s *Stats) Register(r *obs.Registry) {
	r.Gauge("pmem.read_lines", func() int64 { return int64(s.readLines.Total()) })
	r.Gauge("pmem.write_lines", func() int64 { return int64(s.writeLines.Total()) })
	r.Gauge("pmem.flushed_lines", func() int64 { return int64(s.flushes.Total()) })
	r.Gauge("pmem.fences", func() int64 { return int64(s.fences.Total()) })
	r.Gauge("pmem.fences_elided", func() int64 { return int64(s.elidedFences.Total()) })
	for k, name := range deviceKindNames {
		c := &s.deviceNS[k]
		r.Gauge("pmem.device_ns."+name, func() int64 { return int64(c.Total()) })
	}
}

// StatsSnapshot is a point-in-time view of PM traffic.
//
// Snapshots may be taken while accessors run on other goroutines: every
// counter is an independent atomic, so a snapshot is race-free but not a
// single consistent cut — each counter is exact at some instant during the
// call, which is the strongest guarantee lock-free accounting can offer and
// all a windowed measurement needs (counters only grow).
type StatsSnapshot struct {
	// ReadLines and WriteLines count cachelines touched by reads/writes.
	ReadLines, WriteLines uint64
	// FlushedLines counts cachelines flushed (CLWB), Fences counts SFENCEs.
	FlushedLines, Fences uint64
	// FencesElided counts fences absorbed by fence-batch windows
	// (Pool.BeginFenceBatch): ordering points the caller would have paid
	// without batching, covered instead by each window's single tail fence.
	FencesElided uint64
	// DeviceNS is the simulated device time charged by the cost model (zero
	// without one), split by what it was charged for.
	DeviceNS DeviceNS
}

// DeviceNS splits charged device time, in nanoseconds, into the four base
// latencies and the bandwidth queueing paid beyond them. The model books the
// figure it decided to charge, so the parts sum to simulated time exactly;
// the wall time an op spends in the simulator is this plus the spin's
// overshoot.
type DeviceNS struct {
	Read  uint64 `json:"read"`
	Write uint64 `json:"write"`
	Flush uint64 `json:"flush"`
	Fence uint64 `json:"fence"`
	Queue uint64 `json:"queue"`
}

// Total is all device time charged.
func (d DeviceNS) Total() uint64 { return d.Read + d.Write + d.Flush + d.Fence + d.Queue }

// counters lists every counter of the snapshot, so arithmetic over
// snapshots is written once.
func (s *StatsSnapshot) counters() []*uint64 {
	d := &s.DeviceNS
	return []*uint64{&s.ReadLines, &s.WriteLines, &s.FlushedLines, &s.Fences, &s.FencesElided,
		&d.Read, &d.Write, &d.Flush, &d.Fence, &d.Queue}
}

// Add returns s plus o, counter by counter: the traffic of several pools as
// one figure.
func (s StatsSnapshot) Add(o StatsSnapshot) StatsSnapshot {
	oc := o.counters()
	for i, c := range s.counters() {
		*c += *oc[i]
	}
	return s
}

// Sub returns s minus earlier, for windowed measurements. The subtraction
// saturates at zero per counter: a caller that passes the snapshots in the
// wrong order, or an earlier one from another pool, gets a zero, a sane
// reading where a wrapped ~2^64 would poison every per-op metric derived
// from the window.
func (s StatsSnapshot) Sub(earlier StatsSnapshot) StatsSnapshot {
	ec := earlier.counters()
	for i, c := range s.counters() {
		if *c < *ec[i] {
			*c = 0
		} else {
			*c -= *ec[i]
		}
	}
	return s
}

func (s *Stats) snapshot() StatsSnapshot {
	return StatsSnapshot{
		ReadLines:    s.readLines.Total(),
		WriteLines:   s.writeLines.Total(),
		FlushedLines: s.flushes.Total(),
		Fences:       s.fences.Total(),
		FencesElided: s.elidedFences.Total(),
		DeviceNS: DeviceNS{
			Read:  s.deviceNS[devRead].Total(),
			Write: s.deviceNS[devWrite].Total(),
			Flush: s.deviceNS[devFlush].Total(),
			Fence: s.deviceNS[devFence].Total(),
			Queue: s.deviceNS[devQueue].Total(),
		},
	}
}
