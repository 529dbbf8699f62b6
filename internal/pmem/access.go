package pmem

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"dash/internal/obs"
)

// Every access to the arena goes through this file, and every store through
// one function, store — save NewPool's page advice (AdviseHugePages),
// which stores zero bytes into the still all-zero arena before the pool is
// handed out. The accessors are the instrumented data path: they
// read the clock, perform the memory operation, record PM traffic, charge
// the cost model and mark the crash tracker's lines dirty, in that order, so
// that the experiment counters mean something and Crash discards exactly
// what real hardware would.
//
// The clock comes first because a charge prices the access, not what
// follows it: the door reads the clock before the host touches the arena,
// and the spin that pays for the access counts from that read. A read's
// charge spins at once, for what the host access left of the modelled
// latency; a store's charge spins not at all and records the read as the
// start of the persist its fence pays for (cost.go), so the host work up to
// the fence runs inside the modelled time too. A simulated PM access then
// takes about the model's time (plus a clock read or two), not the host's
// cache and TLB misses on the arena plus the model's time. TouchRead, which
// charges lines its caller reads through a quiet view, loads one word of
// each line before it spends, so those reads hit lines fetched while the
// model's latency ran. With no model installed the door reads no clock.
//
// Each direction has a charged and a quiet form for a word, and a quiet
// form for a byte range: LoadU64 / QuietLoadU64 and QuietBytes for loads,
// StoreU64 / QuietStoreU64 and QuietStoreBytes for stores; TouchRead and
// TouchWrite charge for a range a caller moved quietly (VarLog.Append stores
// a blob's header words and bytes quietly and charges the blob's lines
// once). Word accesses are atomic, so lock-free readers racing a locked
// writer, and a Flush copying a line another goroutine stores a word into,
// stay within the Go memory model. ReadU64 and WriteU64 are aliases of
// LoadU64 and StoreU64, kept as the benchmark's probe names.
//
// Quiet forms implement the "one charge per cacheline" discipline: structure
// code accounts a line once (a charged accessor or a Touch) and then may
// touch the rest of that line quietly, mirroring how the CPU cache absorbs
// repeated accesses to a hot line. They are also the right tool for
// observers (stats walks, Verify, tests) that must not perturb an
// experiment's traffic counters. They are NOT a way to make a hot path look
// cheap: metadata an operation reads every time should either pay per access
// or be mirrored in DRAM outright (internal/core's view and mirrors). A quiet
// store is still a store: it is crash-tracked like any other.
//
// A store lands BEFORE its lines are marked dirty. Flush clears a line's
// dirty bit before it copies the line, so a mark that lands after the clear
// survives the flush, and a store that landed before the clear is in the
// copy; marking ahead of the store would let a flush copy the old bytes and
// clear the mark, and the store would then land unmarked — Crash would keep
// an unflushed store. On a tracked pool every store also holds its line's
// busy bit — a word store for its one word, a byte-range store line by line
// — so a flush copies a line between two stores, never during one: media
// gets a prefix of the line's store order, as from real hardware, and never
// an old word 0 beside a newer word 1. Untracked pools (every benchmark's
// measured phase) pay one nil check, and a range store there is a plain
// memmove.

// store is the pool's one door for PM stores: it writes either the word v at
// a, atomically (word), or the bytes of src (a range; an empty one stores
// nothing), then charges the lines written (if charged) from the clock read
// it took before the store, and marks them dirty.
func (p *Pool) store(a Addr, word bool, v uint64, src []byte, charged bool) {
	n := uint64(8)
	if !word {
		if n = uint64(len(src)); n == 0 {
			return
		}
	}
	p.check(a, n)
	var now int64
	if charged {
		now = p.entryClock()
	}
	t := p.crash
	switch {
	case word && t == nil:
		atomic.StoreUint64(p.word(a), v)
	case word:
		l := uint64(a) / CachelineSize
		t.lock(l, 0)
		atomic.StoreUint64(p.word(a), v)
		t.unlock(l)
	case t == nil:
		copy(p.data[a:uint64(a)+n], src)
	default:
		first, last := lineRange(a, n)
		for l := first; l <= last; l++ {
			lo, hi := max(uint64(a), l*CachelineSize), min(uint64(a)+n, (l+1)*CachelineSize)
			t.lock(l, 0)
			copy(p.data[lo:hi], src[lo-uint64(a):])
			t.unlock(l)
		}
	}
	if charged {
		p.onWrite(a, n, now)
	}
	if t != nil {
		t.markDirty(a, n)
	}
}

// word returns the arena word at a (8-aligned, in bounds).
func (p *Pool) word(a Addr) *uint64 { return (*uint64)(unsafe.Pointer(&p.data[a])) }

// StoreU64 atomically stores v at a (8-aligned), charged.
func (p *Pool) StoreU64(a Addr, v uint64) { p.store(a, true, v, nil, true) }

// QuietStoreU64 atomically stores v at a, tracked but not charged.
func (p *Pool) QuietStoreU64(a Addr, v uint64) { p.store(a, true, v, nil, false) }

// QuietStoreBytes copies src to a, tracked but not charged: the caller pays
// with TouchWrite, or the flush that publishes an unpublished block does.
func (p *Pool) QuietStoreBytes(a Addr, src []byte) { p.store(a, false, 0, src, false) }

// WriteU64 is StoreU64.
func (p *Pool) WriteU64(a Addr, v uint64) { p.StoreU64(a, v) }

// LoadU64 atomically loads the uint64 at a (8-aligned), charged.
func (p *Pool) LoadU64(a Addr) uint64 {
	p.check(a, 8)
	now := p.entryClock()
	v := atomic.LoadUint64(p.word(a))
	p.onRead(a, 8, now)
	return v
}

// QuietLoadU64 atomically loads the uint64 at a without accounting.
func (p *Pool) QuietLoadU64(a Addr) uint64 {
	p.check(a, 8)
	return atomic.LoadUint64(p.word(a))
}

// ReadU64 is LoadU64.
func (p *Pool) ReadU64(a Addr) uint64 { return p.LoadU64(a) }

// QuietBytes returns a read view of [a, a+n) without accounting, for
// callers that pay with TouchRead. Stores go through QuietStoreBytes.
func (p *Pool) QuietBytes(a Addr, n uint64) []byte {
	p.check(a, n)
	return p.data[a : uint64(a)+n : uint64(a)+n]
}

// Bytes is QuietBytes, kept for the benchmark, which pre-faults an arena and
// corrupts an image on purpose through it: a store through this view
// bypasses the door, so it is neither charged nor crash-tracked.
func (p *Pool) Bytes(a Addr, n uint64) []byte { return p.QuietBytes(a, n) }

// TouchRead charges a PM read of [a, a+n) made through a quiet view (e.g. a
// bulk key comparison). Under a cost model it first loads one word of each
// line, so the host fetches the lines the caller reads next while the
// charge spends the modelled latency, not after it.
func (p *Pool) TouchRead(a Addr, n uint64) { p.touchRead(a, n, p.entryClock()) }

// touchRead is TouchRead counting from the entry clock now, which a caller
// that loaded part of the range quietly took before that load.
func (p *Pool) touchRead(a Addr, n uint64, now int64) {
	p.check(a, n)
	if now != 0 {
		p.touchLines(a, n)
	}
	p.onRead(a, n, now)
}

// TouchWrite charges a PM write of [a, a+n) made through quiet stores, which
// tracked the lines themselves. The stores came first, so it has no entry
// clock to give the charge.
func (p *Pool) TouchWrite(a Addr, n uint64) { p.check(a, n); p.onWrite(a, n, 0) }

// entryClock is a charged door's clock read, taken before the host access it
// prices so that the spin paying for it counts the access as modelled time:
// the obs.Now timeline, or 0 when no model is installed (nothing to spend).
func (p *Pool) entryClock() int64 {
	if p.model == nil {
		return 0
	}
	return obs.Now()
}

// touchLines atomically loads one aligned word of [a, a+n) in each line that
// holds a whole one, and discards it. The loads only start the host's line
// fetches; they stay inside the range, whose bytes no other goroutine stores
// while the caller reads them.
func (p *Pool) touchLines(a Addr, n uint64) {
	end := uint64(a) + n
	for w := (uint64(a) + 7) &^ 7; w+8 <= end; w = (w + CachelineSize) &^ (CachelineSize - 1) {
		atomic.LoadUint64(p.word(Addr(w)))
	}
}

func (p *Pool) onRead(a Addr, n uint64, now int64) {
	lines := lineSpan(a, n)
	p.stats.addRead(lines)
	if p.model != nil {
		p.stats.addDevice(devRead, p.model.chargeRead(lines, now))
	}
}

func (p *Pool) onWrite(a Addr, n uint64, now int64) {
	lines := lineSpan(a, n)
	p.stats.addWrite(lines)
	if p.model != nil {
		p.stats.addDevice(devWrite, p.model.chargeWrite(lines, now))
	}
}

// lineRange returns the first and last cacheline index of [a, a+n), n > 0.
func lineRange(a Addr, n uint64) (first, last uint64) {
	return uint64(a) / CachelineSize, (uint64(a) + n - 1) / CachelineSize
}

func lineSpan(a Addr, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	first, last := lineRange(a, n)
	return last - first + 1
}

// tracker is the crash-tracking line table: the media image — what survives
// a power loss — and one state word per cacheline, so tracked stores and
// flushes on different lines never meet and no lock spans the pool.
type tracker struct {
	media []byte
	lines []atomic.Uint32
}

// Line state bits.
const (
	lineDirty uint32 = 1 << iota // stored since its last flush began
	lineBusy                     // a flush or a store is copying the line
)

func newTracker(size uint64) *tracker {
	return &tracker{media: make([]byte, size), lines: make([]atomic.Uint32, size/CachelineSize)}
}

// lock takes line l's busy bit, clearing the state bits in clear with it.
// A holder copies one line and lets go, so a waiter yields rather than parks.
func (t *tracker) lock(l uint64, clear uint32) {
	s := &t.lines[l]
	for {
		if v := s.Load(); v&lineBusy == 0 && s.CompareAndSwap(v, v&^clear|lineBusy) {
			return
		}
		runtime.Gosched()
	}
}

func (t *tracker) unlock(l uint64) { t.lines[l].And(^lineBusy) }

// markDirty marks the lines of [a, a+n) dirty; it never waits for a busy
// line (the ordering argument above needs only that it follows the store).
func (t *tracker) markDirty(a Addr, n uint64) {
	first, last := lineRange(a, n)
	for l := first; l <= last; l++ {
		if s := &t.lines[l]; s.Load()&lineDirty == 0 {
			s.Or(lineDirty)
		}
	}
}

// writeBack copies line l from the arena to the media image, one atomic word
// load at a time. The caller holds the line's busy bit.
func (p *Pool) writeBack(l uint64) {
	for off := l * CachelineSize; off < (l+1)*CachelineSize; off += 8 {
		*(*uint64)(unsafe.Pointer(&p.crash.media[off])) = atomic.LoadUint64(p.word(Addr(off)))
	}
}

// revert copies line l from the media image back into the arena (Crash).
func (p *Pool) revert(l uint64) {
	for off := l * CachelineSize; off < (l+1)*CachelineSize; off += 8 {
		atomic.StoreUint64(p.word(Addr(off)), *(*uint64)(unsafe.Pointer(&p.crash.media[off])))
	}
}
