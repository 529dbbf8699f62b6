// Package epoch implements epoch-based memory reclamation (EBR), the
// mechanism Dash uses so that optimistic, lock-free readers never follow a
// pointer into deallocated memory (§4.4). In this engine the only objects
// retired are record-log blobs (core's retireBlob): a blob a delete or a
// copy-on-write update unlinked is handed back to the log's free list once
// every reader that could have observed it has exited its critical section.
// Segments are never freed, and a directory doubling frees the old PM
// directory block at once, since no reader reads a PM directory. Because
// blobs are all a guard protects, core enters one lazily: an operation
// announces itself only when its probe is about to dereference a blob, and
// an operation that meets none — every inline read and write — writes no
// guard slot at all.
//
// The scheme is the classic three-epoch design: a global epoch advances only
// when every active guard has observed the current one, so anything retired
// in epoch e is unreachable by the time the global epoch reaches e+2.
package epoch

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dash/internal/obs"
)

// MaxGuards bounds the number of concurrently active guards.
const MaxGuards = 512

const (
	activeBit = uint64(1) << 63
	epochMask = activeBit - 1
)

// Manager coordinates guards and retired-object reclamation.
type Manager struct {
	global atomic.Uint64

	// slots holds one padded word per possible guard, in obs.Shards regions
	// of MaxGuards/obs.Shards. A goroutine claims a slot in its own
	// obs.GoShard region, the same one at every call depth and for its whole
	// life, so guards of goroutines on different shards write different
	// cachelines; only TryAdvance's scan reads across them.
	slots [MaxGuards]paddedSlot

	mu      sync.Mutex
	retired [3][]retiredItem // indexed by epoch % 3
	pending atomic.Uint64    // total retired not yet reclaimed

	// advanceEvery is how many retires trigger an advance+collect attempt:
	// 64, from NewManager; tests set it lower.
	advanceEvery uint64

	// Optional observability, set before first use; all obs methods are
	// nil-safe, so an uninstrumented Manager pays one predicted branch.
	// Retired counts objects handed to Retire, Reclaimed those actually
	// freed, ReclaimLagNS the retire→free delay of each — the reclamation
	// lag a stalled reader inflates. Trace receives an EvEpochAdvance per
	// successful advance.
	Retired      *obs.Counter
	Reclaimed    *obs.Counter
	ReclaimLagNS *obs.Histogram
	Trace        *obs.Flight
}

type paddedSlot struct {
	v atomic.Uint64 // activeBit | epoch; 0 = free
	_ [56]byte
}

type retiredItem struct {
	free func()
	at   int64 // obs.Now() when retired, for reclamation-lag metering
}

// NewManager returns a ready Manager.
func NewManager() *Manager {
	m := &Manager{advanceEvery: 64}
	m.global.Store(1)
	return m
}

// Guard marks a reader-side critical section.
type Guard struct {
	m    *Manager
	slot int
}

// Enter opens a critical section and returns its guard (EnterSlot).
func (m *Manager) Enter() Guard { return Guard{m: m, slot: m.EnterSlot()} }

// Exit closes the critical section.
func (g Guard) Exit() { g.m.ExitSlot(g.slot) }

// EnterSlot opens a critical section and returns the index of the slot that
// announces it, for a caller that keeps the manager itself and closes the
// section with ExitSlot: core keeps the index in its probe key, where a
// stored Guard makes escape analysis move every caller's key buffer to the
// heap. It is one CAS 0 → activeBit|epoch on the first
// slot of the calling goroutine's shard region, probing linearly past slots
// that are taken (a nested guard, or another goroutine that hashed to the
// same shard). With every slot busy it yields after each full pass, so the
// holders get the core they need to exit.
func (m *Manager) EnterSlot() int {
	i := int(obs.GoShard()) * (MaxGuards / obs.Shards)
	for n := 1; ; n++ {
		if m.slots[i].v.CompareAndSwap(0, activeBit|m.global.Load()) {
			return i
		}
		i = (i + 1) % MaxGuards
		if n%MaxGuards == 0 {
			runtime.Gosched()
		}
	}
}

// ExitSlot closes the critical section EnterSlot returned slot for.
func (m *Manager) ExitSlot(slot int) { m.slots[slot].v.Store(0) }

// Retire schedules free to run once no active guard can still reach the
// retired object.
func (m *Manager) Retire(free func()) {
	// The epoch is read under mu, which TryAdvance holds from its CAS to the
	// moment it has taken its bucket: an object is never appended to the
	// bucket an advance is about to free.
	m.mu.Lock()
	e := m.global.Load()
	m.retired[e%3] = append(m.retired[e%3], retiredItem{free: free, at: obs.Now()})
	m.mu.Unlock()
	m.Retired.Inc()
	if m.pending.Add(1)%m.advanceEvery == 0 {
		m.TryAdvance()
	}
}

// TryAdvance advances the global epoch if every active guard has observed
// it, then reclaims everything retired two epochs ago. Returns how many
// objects were freed.
func (m *Manager) TryAdvance() int {
	e := m.global.Load()
	for i := range m.slots {
		v := m.slots[i].v.Load()
		if v&activeBit != 0 && v&epochMask != e {
			return 0 // a straggler still runs in an older epoch
		}
	}
	m.mu.Lock()
	if !m.global.CompareAndSwap(e, e+1) {
		m.mu.Unlock()
		return 0 // someone else advanced; they will collect
	}
	// Everything retired in epoch e-2 is now more than two epochs old: no
	// active guard can hold a reference.
	bucket := (e + 1) % 3 // == (e-2) % 3
	items := m.retired[bucket]
	m.retired[bucket] = nil
	m.mu.Unlock()
	now := obs.Now()
	for _, it := range items {
		it.free()
		m.ReclaimLagNS.Record(now - it.at)
	}
	m.Reclaimed.Add(uint64(len(items)))
	m.Trace.Record(obs.EvEpochAdvance, obs.TagNone, e+1, uint64(len(items)))
	m.pending.Add(^uint64(len(items) - 1))
	return len(items)
}

// Drain force-reclaims everything by advancing until the retire lists are
// empty. It must only be called when no guards are active (e.g. shutdown).
func (m *Manager) Drain() int {
	total := 0
	for i := 0; i < 4; i++ {
		total += m.TryAdvance()
	}
	return total
}

// Pending returns how many retired objects await reclamation.
func (m *Manager) Pending() uint64 { return m.pending.Load() }
