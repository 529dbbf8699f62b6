package pmem

import "sync/atomic"

// The typed accessors below are the instrumented data path: they perform the
// memory operation, record PM traffic, mark crash-tracking dirt and charge
// the cost model. Data-structure code should touch the arena only through
// them (or through Bytes paired with explicit TouchRead/TouchWrite) so that
// the experiment counters mean something.
//
// Write accessors perform the store BEFORE accounting: marking a line dirty
// ahead of the store would open a window where a concurrent Flush of the
// same line copies the old bytes, clears the dirty flag, and the store then
// lands unmarked — Crash would silently keep an unflushed store. With the
// store-first order a concurrent flush can at worst persist the new value
// early, which is exactly what real hardware does when a neighboring flush
// catches a fresh store to the same line.
//
// A byte-range store (VarLog.Append's payload copies) is a plain write whose
// range may share a cacheline with another goroutine's data (two blobs of
// one line). On a crash-tracked pool a concurrent Flush snapshots every word
// of that line (copyLineToMedia), so it runs inside rangeStore, under the
// tracker's mutex — still ahead of the dirty-marking, which retakes it.
// Untracked pools (every benchmark's measured phase) pay a nil check.

func (p *Pool) rangeStore(store func()) {
	if p.crash != nil {
		p.crash.mu.Lock()
		defer p.crash.mu.Unlock()
	}
	store()
}

func (p *Pool) onRead(a Addr, n uint64) {
	lines := lineSpan(a, n)
	p.stats.addRead(lines)
	if p.model != nil {
		p.stats.addDevice(devRead, p.model.chargeRead(lines))
	}
}

func (p *Pool) onWrite(a Addr, n uint64) {
	lines := lineSpan(a, n)
	p.stats.addWrite(lines)
	if p.model != nil {
		p.stats.addDevice(devWrite, p.model.chargeWrite(lines))
	}
	p.markDirty(a, n)
}

func lineSpan(a Addr, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	first := uint64(a) / CachelineSize
	last := (uint64(a) + n - 1) / CachelineSize
	return last - first + 1
}

// TouchRead accounts a PM read of [a, a+n) performed through a raw Bytes
// view (e.g. a bulk key comparison).
func (p *Pool) TouchRead(a Addr, n uint64) { p.check(a, n); p.onRead(a, n) }

// TouchWrite accounts a PM write of [a, a+n) performed through a raw Bytes
// view. It also marks the lines dirty for crash tracking; call it after the
// stores, not before (see the ordering note above).
func (p *Pool) TouchWrite(a Addr, n uint64) { p.check(a, n); p.onWrite(a, n) }

// ReadU64 loads a little-endian-independent native uint64 at a (8-aligned).
func (p *Pool) ReadU64(a Addr) uint64 {
	p.check(a, 8)
	p.onRead(a, 8)
	return *(*uint64)(p.base(a))
}

// WriteU64 stores v at a (8-aligned). On x86 an aligned 8-byte store is
// atomic with respect to tearing, which several Dash commit protocols rely
// on; the simulation preserves that by using a single native store.
func (p *Pool) WriteU64(a Addr, v uint64) {
	p.check(a, 8)
	*(*uint64)(p.base(a)) = v
	p.onWrite(a, 8)
}

// Atomic operations. These are both synchronization (for the simulated
// threads) and 8-byte atomic PM stores (for the simulated hardware).

// LoadU64 atomically loads the uint64 at a.
func (p *Pool) LoadU64(a Addr) uint64 {
	p.check(a, 8)
	p.onRead(a, 8)
	return atomic.LoadUint64((*uint64)(p.base(a)))
}

// StoreU64 atomically stores v at a.
func (p *Pool) StoreU64(a Addr, v uint64) {
	p.check(a, 8)
	atomic.StoreUint64((*uint64)(p.base(a)), v)
	p.onWrite(a, 8)
}

// CompareAndSwapU64 executes a CAS on the uint64 at a.
func (p *Pool) CompareAndSwapU64(a Addr, old, new uint64) bool {
	p.check(a, 8)
	ok := atomic.CompareAndSwapUint64((*uint64)(p.base(a)), old, new)
	p.onWrite(a, 8)
	return ok
}

// AddU64 atomically adds delta to the uint64 at a and returns the new value.
func (p *Pool) AddU64(a Addr, delta uint64) uint64 {
	p.check(a, 8)
	v := atomic.AddUint64((*uint64)(p.base(a)), delta)
	p.onWrite(a, 8)
	return v
}

// ReadBytes copies n bytes at a out of the pool.
func (p *Pool) ReadBytes(a Addr, n uint64) []byte {
	p.check(a, n)
	p.onRead(a, n)
	out := make([]byte, n)
	copy(out, p.data[a:uint64(a)+n])
	return out
}
