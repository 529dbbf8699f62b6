// Package pmem simulates byte-addressable persistent memory (Intel Optane
// DCPMM in AppDirect mode) for data structures that must reason about
// cacheline flushes, store fences and crash consistency.
//
// A Pool is one contiguous arena addressed by 64-bit offsets (Addr). Offsets
// play the role of the paper's fixed-mapping 8-byte persistent pointers: they
// are position independent, so an arena image reopened after a crash resolves
// every pointer without relocation.
//
// The pool models the persistence domain of real hardware: a store becomes
// durable only once its cacheline has been flushed (CLWB) and a fence has
// ordered the flush. Every store enters the arena through one door
// (access.go) that reads the clock, stores, charges and marks the line
// dirty, in that order.
// With crash tracking enabled the pool keeps a shadow "media" image that
// receives a line only when it is flushed, plus one atomic state word per
// line (clean or dirty, and busy while it is being copied); Crash discards
// everything that never reached media, exactly like power loss discards
// dirty CPU cachelines. An optional CostModel (SetModel) charges
// Optane-shaped latencies and a bandwidth penalty so that excessive PM
// traffic destroys multicore scalability the way it does on the real DIMMs.
//
// The arena is a Go-heap slice (so the runtime's heap figures count it),
// and on Linux its 2 MiB regions are advised onto transparent huge pages
// when the kernel offers them (AdviseHugePages, hugepage_linux.go — the one
// page-advice helper, which core's segment mirrors share): a simulated PM
// access should cost the model's time, and an arena of a hundred MiB on
// 4 KiB pages would add a host TLB walk to most of them. The door's charges
// count from before the host access for the same reason (access.go).
//
// On top of the raw arena, VarLog (varlog.go) provides a crash-consistent
// bump-allocated log of variable-length key/value blobs — the record store
// data structures point fixed-size slots into.
package pmem

import (
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"

	"dash/internal/obs"
)

// CachelineSize is the unit of flushing and of crash-atomicity tracking.
const CachelineSize = 64

// Addr is an offset into a Pool's arena. The zero Addr is the null pointer:
// offset 0 is reserved and never handed out.
type Addr uint64

// Null is the zero Addr, never a valid allocation.
const Null Addr = 0

// IsNull reports whether a is the null persistent pointer.
func (a Addr) IsNull() bool { return a == Null }

// Add returns a offset by n bytes.
func (a Addr) Add(n uint64) Addr { return a + Addr(n) }

// Pool is a simulated persistent-memory arena.
//
// Every access goes through the pool's accessors so that persistence
// tracking and cost accounting observe it. Concurrent use is safe in the
// same sense raw memory is: every word is loaded and stored atomically, and
// distinct byte ranges may be written concurrently. Crash tracking keeps
// that true with no lock wider than one cacheline, so a tracked pool runs
// its writers truly in parallel.
type Pool struct {
	data  []byte   // the arena; base is 8-byte aligned
	words []uint64 // keeps the backing array alive and aligned

	size uint64

	stats Stats

	model *CostModel // nil when cost charging is disabled

	// The crash tracker's line table; nil unless Options.TrackCrashes.
	crash *tracker

	// flushHook, when non-nil, runs at the top of every Flush, before any
	// line reaches the media image — the persist boundary crash-injection
	// tests hook to simulate power loss at each point a real machine could
	// lose it. Installed via SetFlushHook; the hook may call Crash and panic
	// to unwind the interrupted operation.
	flushHook atomic.Pointer[func(a Addr, n uint64)]
}

// Options configures a Pool.
type Options struct {
	// Size is the arena capacity in bytes. Rounded up to a cacheline.
	Size uint64
	// TrackCrashes enables the media image and line table Crash and Snapshot
	// need: Size bytes of media plus 4 bytes per cacheline. Every store then
	// marks its line and every flush copies it, so it is meant for
	// crash-consistency tests, not measurements.
	TrackCrashes bool
}

// ErrTooSmall is returned when a pool would be too small to hold its root.
var ErrTooSmall = errors.New("pmem: pool size too small")

// NewPool creates an arena of the requested size. The first cacheline is
// reserved so that Addr 0 can serve as the null pointer.
func NewPool(opt Options) (*Pool, error) {
	if opt.Size < 4*CachelineSize {
		return nil, ErrTooSmall
	}
	size := (opt.Size + CachelineSize - 1) &^ (CachelineSize - 1)
	words := make([]uint64, size/8)
	p := &Pool{
		words: words,
		data:  unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size),
		size:  size,
	}
	AdviseHugePages(p.data)
	if opt.TrackCrashes {
		p.crash = newTracker(size)
	}
	return p, nil
}

// Size returns the arena capacity in bytes.
func (p *Pool) Size() uint64 { return p.size }

// Stats returns a snapshot of the PM traffic counters. Safe to call while
// other goroutines access the pool; see StatsSnapshot for the (per-counter,
// not cross-counter) consistency it provides.
func (p *Pool) Stats() StatsSnapshot { return p.stats.snapshot() }

// RegisterMetrics exposes the pool's traffic counters on r under pmem.*
// names.
func (p *Pool) RegisterMetrics(r *obs.Registry) { p.stats.Register(r) }

// Model returns the active cost model, or nil.
func (p *Pool) Model() *CostModel { return p.model }

// SetModel installs (or removes, with nil) the cost model. Not safe to call
// concurrently with accesses.
func (p *Pool) SetModel(m *CostModel) { p.model = m }

func (p *Pool) check(a Addr, n uint64) {
	if uint64(a) < CachelineSize || uint64(a)+n > p.size {
		panic(fmt.Sprintf("pmem: access [%d,+%d) out of pool bounds [%d,%d)", a, n, CachelineSize, p.size))
	}
}

// Flush simulates CLWB over the cachelines covering [a, a+n): the lines are
// copied to the durable media image (when crash tracking is on), counted,
// and charged by the cost model, whose calling goroutine pays the charge at
// its next Fence. On real hardware the flush only becomes
// ordered at the next Fence; the simulation persists eagerly, which is a
// strictly weaker adversary for ordering bugs *within* a line but identical
// at the granularity crash tests exercise (whole lines either survive or
// vanish).
//
// A tracked flush takes each line's busy bit, clearing its dirty bit, and
// copies the line word by word: a second flush or a store on the same line
// waits for the copy, so media never goes back to an older copy, and a
// store that lands after the copy marks the line dirty again.
func (p *Pool) Flush(a Addr, n uint64) {
	if n == 0 {
		return
	}
	if h := p.flushHook.Load(); h != nil {
		(*h)(a, n)
	}
	p.check(a, n)
	first, last := lineRange(a, n)
	lines := last - first + 1
	p.stats.addFlush(lines)
	if p.model != nil {
		p.stats.addDevice(devFlush, p.model.chargeFlush(lines))
	}
	if t := p.crash; t != nil {
		for l := first; l <= last; l++ {
			t.lock(l, lineDirty)
			p.writeBack(l)
			t.unlock(l)
		}
	}
}

// SetFlushHook installs (or, with nil, removes) a callback invoked at the
// start of every Flush with the flushed range [a, a+n), before any cacheline
// is copied to the media image. Crash tests use it to count persist
// boundaries and simulate power loss at the Kth one (typically by calling
// Crash and panicking out of the interrupted operation), or to recognise one
// protocol step by the range it flushes. The hook must not itself touch the
// pool through accounting accessors.
func (p *Pool) SetFlushHook(h func(a Addr, n uint64)) {
	if h == nil {
		p.flushHook.Store(nil)
		return
	}
	p.flushHook.Store(&h)
}

// Fence simulates SFENCE ordering of prior flushes. With the eager Flush
// model it orders nothing, but under a cost model it is where the calling
// goroutine waits out the device time of its stores and flushes since its
// last fence or charged read.
func (p *Pool) Fence() {
	p.stats.addFence()
	if p.model != nil {
		p.stats.addDevice(devFence, p.model.chargeFence())
	}
}

// Persist is the common Flush+Fence pair.
func (p *Pool) Persist(a Addr, n uint64) {
	p.Flush(a, n)
	p.Fence()
}

// Crash simulates power loss: every cacheline not flushed since its last
// store reverts to its media content. Requires TrackCrashes, and no store or
// flush in flight on another goroutine (a crash hook runs on the goroutine
// whose flush it interrupts). The pool remains usable; callers then run
// their recovery procedure.
func (p *Pool) Crash() {
	t := p.crash
	if t == nil {
		panic("pmem: Crash called without TrackCrashes")
	}
	for l := range t.lines {
		if t.lines[l].Load()&lineDirty != 0 {
			p.revert(uint64(l))
			t.lines[l].Store(0)
		}
	}
}

// DirtyLines reports how many cachelines currently hold unflushed stores.
func (p *Pool) DirtyLines() int {
	n := 0
	if t := p.crash; t != nil {
		for l := range t.lines {
			if t.lines[l].Load()&lineDirty != 0 {
				n++
			}
		}
	}
	return n
}

// Snapshot copies the *durable* image of the pool (media content if crash
// tracking is enabled, else current content). Reopening the snapshot models
// restart after a clean or unclean shutdown.
func (p *Pool) Snapshot() []byte {
	out := make([]byte, p.size)
	t := p.crash
	if t == nil {
		copy(out, p.data)
		return out
	}
	// Lines never written since pool creation are identical in both images,
	// so copying media alone is correct: media starts zeroed exactly like the
	// arena. Each line is copied under its busy bit, so a flush running
	// concurrently lands whole or not at all.
	for l := range t.lines {
		off := uint64(l) * CachelineSize
		t.lock(uint64(l), 0)
		copy(out[off:off+CachelineSize], t.media[off:])
		t.unlock(uint64(l))
	}
	return out
}

// OpenSnapshot builds a pool from a durable image produced by Snapshot.
func OpenSnapshot(img []byte, opt Options) (*Pool, error) {
	opt.Size = uint64(len(img))
	p, err := NewPool(opt)
	if err != nil {
		return nil, err
	}
	copy(p.data, img)
	if p.crash != nil {
		copy(p.crash.media, img)
	}
	return p, nil
}
