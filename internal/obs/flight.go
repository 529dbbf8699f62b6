package obs

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// EventType discriminates flight-recorder events. Types below evOpMax are
// per-operation completions (high volume, recorded into the sharded op
// lane); the rest are structural transitions (rare, recorded into the
// control lane so an op flood can never evict the lifecycle of the split
// that stalled it).
type EventType uint8

const (
	EvNone EventType = iota
	EvGet
	EvInsert
	EvUpdate
	EvDelete

	evOpMax // lane boundary, not a real event

	EvSplitTrigger  // an insert found the segment full; A = segment addr
	EvSplitCAS      // split ownership CAS won; A = segment addr
	EvSplitMigrate  // records copied to sibling; A = old seg, B = new seg
	EvSplitPublish  // directory entries flipped; A = old seg, B = new seg
	EvSplitSweep    // moved records swept from old seg; A = old seg, B = stall ns
	EvSplitRollback // split abandoned before publish; A = segment addr
	EvDirDouble     // directory doubled; A = new global depth
	EvRouteRepair   // stale dirCache route repaired; A = key hash
	EvEpochAdvance  // epoch advanced; A = new epoch, B = objects reclaimed
	EvRecovery      // recovery phase finished; Tag = phase, B = duration ns
	EvSegRecover    // lazy first-touch segment recovery; A = segment addr, B = duration ns
)

var evNames = map[EventType]string{
	EvGet:           "get",
	EvInsert:        "insert",
	EvUpdate:        "update",
	EvDelete:        "delete",
	EvSplitTrigger:  "split-trigger",
	EvSplitCAS:      "split-cas",
	EvSplitMigrate:  "split-migrate",
	EvSplitPublish:  "split-publish",
	EvSplitSweep:    "split-sweep",
	EvSplitRollback: "split-rollback",
	EvDirDouble:     "dir-double",
	EvRouteRepair:   "route-repair",
	EvEpochAdvance:  "epoch-advance",
	EvRecovery:      "recovery-phase",
	EvSegRecover:    "seg-recover",
}

// String is the event type's name as the text trace prints it.
func (t EventType) String() string {
	if s, ok := evNames[t]; ok {
		return s
	}
	return fmt.Sprintf("ev(%d)", uint8(t))
}

// Event tags: the one-byte qualifier. For op events it is the path/outcome
// that served the operation; for EvRecovery it is the phase.
const (
	TagNone uint8 = iota

	// Read paths (EvGet).
	PathMirrorHit // positive hit served by the DRAM filter mirror
	PathMirrorNeg // negative vouched for entirely in DRAM

	// Mutator outcomes (EvInsert/EvUpdate/EvDelete).
	OutcomeOK
	OutcomeExists   // insert: key already present
	OutcomeMissing  // update/delete: key absent
	OutcomeOverflow // insert: stash exhausted even after splitting
	OutcomeTooLarge // variable-length key/value over the log's limit
	OutcomeErr      // any other error

	// Recovery phases (EvRecovery).
	PhaseDirectory
	PhaseSegments
	PhaseLog
	PhaseMirrors
)

var tagNames = map[uint8]string{
	TagNone:         "-",
	PathMirrorHit:   "mirror-hit",
	PathMirrorNeg:   "mirror-neg",
	OutcomeOK:       "ok",
	OutcomeExists:   "exists",
	OutcomeMissing:  "missing",
	OutcomeOverflow: "overflow",
	OutcomeTooLarge: "too-large",
	OutcomeErr:      "err",
	PhaseDirectory:  "directory",
	PhaseSegments:   "segments",
	PhaseLog:        "log",
	PhaseMirrors:    "mirrors",
}

// TagName renders a tag for human-readable traces.
func TagName(tag uint8) string {
	if s, ok := tagNames[tag]; ok {
		return s
	}
	return fmt.Sprintf("tag(%d)", tag)
}

// Event is one flight-recorder entry. TS is nanoseconds on the package
// timeline (Now); A and B are type-specific payloads (see the EventType
// constants). Op events carry the operation's key hash in A and its
// duration in nanoseconds in B, with TS at the operation's start — begin
// and end in one record — or, for an unsampled op recorded only for its
// rare outcome, B = 0 and TS at completion.
type Event struct {
	TS   int64     `json:"ts"`
	Type EventType `json:"type"`
	Tag  uint8     `json:"tag"`
	A    uint64    `json:"a"`
	B    uint64    `json:"b"`
}

// String formats the event as one line of the text trace: time in ms,
// type, tag, and the two payloads.
func (e Event) String() string {
	return fmt.Sprintf("%14.6fms %-14s %-11s a=%#x b=%d",
		float64(e.TS)/1e6, e.Type.String(), TagName(e.Tag), e.A, e.B)
}

// Flight is the fixed-size flight recorder. Recording claims a slot index
// with one atomic add and stores the fields with plain atomics — no locks,
// no allocation, wait-free. Two lanes:
//
//   - the op lane: goroutine-sharded rings for the high-volume
//     per-operation events, so concurrent writers never share a cursor
//     cacheline;
//   - the control lane: one ring reserved for the rare structural events
//     (split lifecycle, route repairs, epoch advances, recovery), so their
//     history survives long after millions of op events have wrapped the op
//     lane.
//
// A slot is published by a seqlock-style protocol (seq=0 → fields →
// seq=index+1); TraceSnapshot drops slots it catches mid-overwrite instead
// of returning torn events.
type Flight struct {
	ops [Shards]ring
	ctl ring
}

const (
	defaultOpSlots  = 1 << 11 // per op-lane shard: 64 shards × 2048 = 128Ki events
	defaultCtlSlots = 1 << 12
)

type slot struct {
	seq  atomic.Uint64 // 0 while being written, else slot index+1
	ts   atomic.Int64
	meta atomic.Uint64 // Type<<8 | Tag
	a    atomic.Uint64
	b    atomic.Uint64
}

type ring struct {
	cursor atomic.Uint64
	slots  []slot // power-of-two length
}

// NewFlight returns a recorder with the default ring sizes.
func NewFlight() *Flight { return NewFlightSized(defaultOpSlots, defaultCtlSlots) }

// NewFlightSized returns a recorder with opSlots slots per op-lane shard
// and ctlSlots control-lane slots; both are rounded up to a power of two
// (minimum 2).
func NewFlightSized(opSlots, ctlSlots int) *Flight {
	f := new(Flight)
	for i := range f.ops {
		f.ops[i].slots = make([]slot, ceilPow2(opSlots))
	}
	f.ctl.slots = make([]slot, ceilPow2(ctlSlots))
	return f
}

func ceilPow2(n int) int {
	p := 2
	for p < n {
		p <<= 1
	}
	return p
}

// Record appends one event stamped Now(). Safe (and a no-op) on a nil
// *Flight.
func (f *Flight) Record(t EventType, tag uint8, a, b uint64) {
	f.RecordAt(Now(), t, tag, a, b)
}

// RecordAt appends one event with an explicit timestamp — op wrappers pass
// the operation's start time so the trace orders by begin, having already
// captured it to compute the duration.
func (f *Flight) RecordAt(ts int64, t EventType, tag uint8, a, b uint64) {
	if f == nil {
		return
	}
	r := &f.ctl
	if t < evOpMax {
		r = &f.ops[GoShard()]
	}
	i := r.cursor.Add(1) - 1
	s := &r.slots[i&uint64(len(r.slots)-1)]
	s.seq.Store(0)
	s.ts.Store(ts)
	s.meta.Store(uint64(t)<<8 | uint64(tag))
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(i + 1)
}

func (r *ring) snapshot(out []Event) []Event {
	n := uint64(len(r.slots))
	if n == 0 {
		return out
	}
	c := r.cursor.Load()
	lo := uint64(0)
	if c > n {
		lo = c - n
	}
	for i := lo; i < c; i++ {
		s := &r.slots[i&(n-1)]
		if s.seq.Load() != i+1 {
			continue // torn or already overwritten
		}
		ts := s.ts.Load()
		meta := s.meta.Load()
		a := s.a.Load()
		b := s.b.Load()
		if s.seq.Load() != i+1 {
			continue // overwritten while reading
		}
		out = append(out, Event{TS: ts, Type: EventType(meta >> 8), Tag: uint8(meta), A: a, B: b})
	}
	return out
}

// Snapshot merges every lane into one log sorted by timestamp (stable, so
// same-stamp events keep ring order). It runs concurrently with recording;
// events overwritten mid-read are dropped, never torn.
func (f *Flight) Snapshot() []Event {
	if f == nil {
		return nil
	}
	// Non-nil even when empty: consumers (obs.Serve) use nil to mean "no
	// recorder attached", not "nothing recorded yet".
	out := make([]Event, 0, 64)
	for i := range f.ops {
		out = f.ops[i].snapshot(out)
	}
	out = f.ctl.snapshot(out)
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}
