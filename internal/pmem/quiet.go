package pmem

import "sync/atomic"

// Quiet accessors perform the memory operation without charging the cost
// model or counting stats. They implement the "one charge per cacheline"
// discipline: structure code accounts a line once (TouchRead/TouchWrite or
// an accounted accessor) and then may touch the rest of that line quietly,
// mirroring how the CPU cache absorbs repeated accesses to a hot line.
// They are also the right tool for observers (stats walks, tests, debug
// dumps) that must not perturb an experiment's traffic counters. They are
// NOT a way to make a hot path look cheap: metadata that a data structure
// reads on every operation should either pay per access or be mirrored in
// DRAM outright (see internal/core's directory cache for the pattern),
// keeping the charged counters an honest model of what real hardware would
// fetch from the DIMMs.
//
// Quiet writes still participate in crash tracking — a store is a store,
// whatever it costs — so crash tests remain sound. As in access.go, the
// store happens before the dirty-marking so a concurrent flush of the line
// can never clear the mark ahead of the store landing.

// QuietReadU64 loads the uint64 at a without accounting.
func (p *Pool) QuietReadU64(a Addr) uint64 {
	p.check(a, 8)
	return *(*uint64)(p.base(a))
}

// QuietLoadU64 atomically loads the uint64 at a without accounting.
func (p *Pool) QuietLoadU64(a Addr) uint64 {
	p.check(a, 8)
	return atomic.LoadUint64((*uint64)(p.base(a)))
}

// QuietStoreU64 atomically stores v at a, tracked but not charged.
func (p *Pool) QuietStoreU64(a Addr, v uint64) {
	p.check(a, 8)
	atomic.StoreUint64((*uint64)(p.base(a)), v)
	p.markDirty(a, 8)
}

// QuietBytes returns a view of [a, a+n) without accounting, for callers that
// already paid via TouchRead/TouchWrite.
func (p *Pool) QuietBytes(a Addr, n uint64) []byte {
	p.check(a, n)
	return p.data[a : uint64(a)+n : uint64(a)+n]
}

// QuietZero clears [a, a+n), tracked for crashes but not charged: the mode
// for formatting an unpublished block whose lines are charged wholesale by
// the flush that publishes it.
func (p *Pool) QuietZero(a Addr, n uint64) {
	p.check(a, n)
	b := p.data[a : uint64(a)+n]
	for i := range b {
		b[i] = 0
	}
	p.markDirty(a, n)
}
