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
// ordered the flush. With crash tracking enabled the pool keeps a shadow
// "media" image that receives data only on Flush; Crash discards everything
// that never reached media, exactly like power loss discards dirty CPU
// cachelines. An optional CostModel charges Optane-shaped latencies and a
// bandwidth penalty so that excessive PM traffic destroys multicore
// scalability the way it does on the real DIMMs.
//
// On top of the raw arena, VarLog (varlog.go) provides a crash-consistent
// bump-allocated log of variable-length key/value blobs — the record store
// data structures point fixed-size slots into.
package pmem

import (
	"errors"
	"fmt"
	"sync"
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
// All mutating accessors go through the pool so that persistence tracking and
// cost accounting observe every PM access. Concurrent use is safe in the same
// sense raw memory is: distinct words may be accessed concurrently, and the
// atomic accessors provide the usual synchronization. Crash tracking adds
// internal locking and is intended for (mostly) single-threaded crash tests.
type Pool struct {
	data  []byte   // the arena; base is 8-byte aligned
	words []uint64 // keeps the backing array alive and aligned

	size uint64

	stats Stats

	model *CostModel // nil when cost charging is disabled

	// Crash-tracking state; nil unless EnableCrashTracking was called.
	crash *crashTracker

	// flushHook, when non-nil, runs at the top of every Flush, before any
	// line reaches the media image — the persist boundary crash-injection
	// tests hook to simulate power loss at each point a real machine could
	// lose it. Installed via SetFlushHook; the hook may call Crash and panic
	// to unwind the interrupted operation.
	flushHook atomic.Pointer[func()]

	// Fence-batching window (BeginFenceBatch/EndFenceBatch): while depth is
	// non-zero, Fence elides the real fence and counts it instead, and the
	// batch owner issues one ordering fence at the window's end. elided
	// counts the fences elided in the current window.
	fenceBatchDepth  atomic.Int32
	fenceBatchElided atomic.Uint64
}

type crashTracker struct {
	mu    sync.Mutex
	media []byte              // durable image; receives lines on Flush
	dirty map[uint64]struct{} // cacheline indexes written since last flush
}

// Options configures a Pool.
type Options struct {
	// Size is the arena capacity in bytes. Rounded up to a cacheline.
	Size uint64
	// CostModel, when non-nil, charges simulated Optane latencies on every
	// tracked PM access. Leave nil for functional tests.
	CostModel *CostModel
	// TrackCrashes enables the shadow media image used by Crash/Recover
	// tests. It roughly doubles memory use and serializes writes, so it is
	// meant for crash-consistency tests, not benchmarks.
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
		model: opt.CostModel,
	}
	if opt.TrackCrashes {
		p.crash = &crashTracker{
			media: make([]byte, size),
			dirty: make(map[uint64]struct{}),
		}
	}
	return p, nil
}

// Size returns the arena capacity in bytes.
func (p *Pool) Size() uint64 { return p.size }

// Stats returns a snapshot of the PM traffic counters. Safe to call while
// other goroutines access the pool; see StatsSnapshot for the (per-counter,
// not cross-counter) consistency it provides.
func (p *Pool) Stats() StatsSnapshot { return p.stats.snapshot() }

// ResetStats zeroes the PM traffic counters. Safe to call mid-run; see
// Stats.reset for what concurrent increments may observe.
func (p *Pool) ResetStats() { p.stats.reset() }

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

// Bytes returns a mutable view of [a, a+n). The caller is responsible for
// calling Flush to persist modifications; use the typed accessors when
// accounting matters.
func (p *Pool) Bytes(a Addr, n uint64) []byte {
	p.check(a, n)
	return p.data[a : uint64(a)+n : uint64(a)+n]
}

// base returns an unsafe pointer to offset a. a must be in bounds.
func (p *Pool) base(a Addr) unsafe.Pointer {
	return unsafe.Pointer(&p.data[a])
}

// markDirty records that the cachelines covering [a, a+n) hold unflushed
// stores (crash tracking only).
func (p *Pool) markDirty(a Addr, n uint64) {
	if p.crash == nil || n == 0 {
		return
	}
	first := uint64(a) / CachelineSize
	last := (uint64(a) + n - 1) / CachelineSize
	p.crash.mu.Lock()
	for l := first; l <= last; l++ {
		p.crash.dirty[l] = struct{}{}
	}
	p.crash.mu.Unlock()
}

// Flush simulates CLWB over the cachelines covering [a, a+n): the lines are
// copied to the durable media image (when crash tracking is on), counted,
// and charged by the cost model. On real hardware the flush only becomes
// ordered at the next Fence; the simulation persists eagerly, which is a
// strictly weaker adversary for ordering bugs *within* a line but identical
// at the granularity crash tests exercise (whole lines either survive or
// vanish).
func (p *Pool) Flush(a Addr, n uint64) {
	if n == 0 {
		return
	}
	if h := p.flushHook.Load(); h != nil {
		(*h)()
	}
	p.check(a, n)
	first := uint64(a) / CachelineSize
	last := (uint64(a) + n - 1) / CachelineSize
	lines := last - first + 1
	p.stats.addFlush(lines)
	if p.model != nil {
		p.stats.addDevice(devFlush, p.model.chargeFlush(lines))
	}
	if p.crash != nil {
		p.crash.mu.Lock()
		for l := first; l <= last; l++ {
			off := l * CachelineSize
			p.copyLineToMedia(off)
			delete(p.crash.dirty, l)
		}
		p.crash.mu.Unlock()
	}
}

// copyLineToMedia copies one cacheline from the arena into the media image
// using atomic word loads: another goroutine may be storing words of the
// same line concurrently (e.g. a bucket lock CAS while a neighbor's record
// in the same line is flushed), and like real CLWB the copy must snapshot
// each word atomically rather than race on it. The caller holds crash.mu.
func (p *Pool) copyLineToMedia(off uint64) {
	for i := uint64(0); i < CachelineSize; i += 8 {
		v := atomic.LoadUint64((*uint64)(unsafe.Pointer(&p.data[off+i])))
		// media comes from make([]byte, n) with n a multiple of 64, so it is
		// 8-aligned; store native-endian to stay byte-identical to the arena.
		*(*uint64)(unsafe.Pointer(&p.crash.media[off+i])) = v
	}
}

// SetFlushHook installs (or, with nil, removes) a callback invoked at the
// start of every Flush, before any cacheline is copied to the media image.
// Crash-point fuzz tests use it to count persist boundaries and simulate
// power loss at the Kth one (typically by calling Crash and panicking out of
// the interrupted operation). The hook must not itself touch the pool
// through accounting accessors.
func (p *Pool) SetFlushHook(h func()) {
	if h == nil {
		p.flushHook.Store(nil)
		return
	}
	p.flushHook.Store(&h)
}

// Fence simulates SFENCE ordering of prior flushes. With the eager Flush
// model it only costs accounting. Inside a fence-batch window
// (BeginFenceBatch) the fence is elided — counted but neither charged nor
// added to the fence total — and the one real fence EndFenceBatch issues
// orders everything the window flushed.
func (p *Pool) Fence() {
	if p.fenceBatchDepth.Load() > 0 {
		p.fenceBatchElided.Add(1)
		p.stats.addElidedFence()
		return
	}
	p.stats.addFence()
	if p.model != nil {
		p.stats.addDevice(devFence, p.model.chargeFence())
	}
}

// BeginFenceBatch opens a fence-batching window: until EndFenceBatch, every
// Fence on this pool is elided and counted instead of issued, so a batch of
// N persists pays one ordering fence at the tail instead of N. This is the
// service tier's group-commit hook: because the simulator flushes eagerly,
// deferring only the fence never weakens crash consistency within the
// window — but on real hardware nothing in the window is durable until the
// tail fence, so callers must not acknowledge any operation in the window
// before EndFenceBatch returns. Single-writer discipline required: the
// window owner must be the only goroutine issuing persists on this pool
// while the window is open (the service tier guarantees it with a per-shard
// combiner lock: whichever client holds it runs the shard's requests, and
// nothing else writes to the shard's pool). Windows do not nest.
func (p *Pool) BeginFenceBatch() {
	p.fenceBatchElided.Store(0)
	p.fenceBatchDepth.Store(1)
}

// EndFenceBatch closes the window opened by BeginFenceBatch, issuing one
// real fence if any fence was elided inside it, and returns the number of
// elided fences (so callers can meter the saving: elided minus the single
// tail fence).
func (p *Pool) EndFenceBatch() uint64 {
	p.fenceBatchDepth.Store(0)
	n := p.fenceBatchElided.Swap(0)
	if n > 0 {
		p.Fence()
	}
	return n
}

// AbortFenceBatch abandons an open fence-batch window without issuing the
// tail fence — for unwinding after a simulated crash interrupted the batch
// owner mid-window (the pool's contents are post-crash state; ordering the
// dead window's flushes would be meaningless).
func (p *Pool) AbortFenceBatch() {
	p.fenceBatchDepth.Store(0)
	p.fenceBatchElided.Store(0)
}

// Persist is the common Flush+Fence pair.
func (p *Pool) Persist(a Addr, n uint64) {
	p.Flush(a, n)
	p.Fence()
}

// Crash simulates power loss: every cacheline not flushed since its last
// store reverts to its media content. Requires TrackCrashes. The pool remains
// usable; callers then run their recovery procedure.
func (p *Pool) Crash() {
	if p.crash == nil {
		panic("pmem: Crash called without TrackCrashes")
	}
	p.crash.mu.Lock()
	defer p.crash.mu.Unlock()
	for l := range p.crash.dirty {
		off := l * CachelineSize
		copy(p.data[off:off+CachelineSize], p.crash.media[off:off+CachelineSize])
		delete(p.crash.dirty, l)
	}
}

// DirtyLines reports how many cachelines currently hold unflushed stores.
func (p *Pool) DirtyLines() int {
	if p.crash == nil {
		return 0
	}
	p.crash.mu.Lock()
	defer p.crash.mu.Unlock()
	return len(p.crash.dirty)
}

// Snapshot copies the *durable* image of the pool (media content if crash
// tracking is enabled, else current content). Reopening the snapshot models
// restart after a clean or unclean shutdown.
func (p *Pool) Snapshot() []byte {
	out := make([]byte, p.size)
	if p.crash != nil {
		p.crash.mu.Lock()
		copy(out, p.crash.media)
		// Lines never written since pool creation are identical in both
		// images, so copying media alone is correct: media starts zeroed
		// exactly like the arena.
		p.crash.mu.Unlock()
		return out
	}
	copy(out, p.data)
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
