package pmem

import (
	"sync/atomic"

	"dash/internal/obs"
)

// CostModel charges simulated Optane DCPMM costs on every tracked PM access.
//
// Two effects matter for reproducing the paper's curves:
//
//  1. Latency: an uncached PM read touches the media (~300ns device latency),
//     while a store commits at the memory controller's ADR domain and is
//     considerably cheaper end to end (§2.1). Base per-access latencies
//     model this asymmetry.
//
//  2. Bandwidth: DCPMM delivers roughly 8× less random-read and 14× less
//     random-write bandwidth than DRAM, so a multicore workload saturates it
//     long before the cores run out (§1.1, Fig. 1). A shared virtual clock
//     per direction regulates aggregate line throughput: each access books
//     its service time on the clock and owes the wait until its finish
//     time, so once offered load exceeds the configured bandwidth, extra
//     threads only add queueing delay — exactly the flat scalability
//     plateau of Fig. 1.
//
// Device time is made to pass by spinning the calling goroutine on the
// process's monotonic clock (obs.Now), and a clock read costs about as much
// as the cheapest thing being priced (44–56 ns, bench.clock_read_ns, on the
// 2-CPU reference box). So a goroutine spins once per persist, where the
// hardware makes a core wait (§2.1): a store is absorbed by ADR and a CLWB
// runs asynchronously, so their charges read no clock and do not spin. Each
// adds its base latency and its lines to the goroutine's carry ledger; the
// first also records where the persist began: the door's entry clock, read
// before the host store (access.go), or a read of its own where the door
// took none. The next settle — a Fence, or a charged read — pays it all in
// one spin counted from there: its own latency, the deferred latencies, and
// the write bandwidth the deferred lines book on the regulator in one call.
// The host work between a store and its fence (the arena line's miss, the
// quiet stores, the door's own bookkeeping) so runs inside the modelled
// time, as it does on hardware, and a read's spin counts from the door's
// clock read before the host access the same way. A settle's own
// clock read serves the bandwidth regulator and is the spin's first loop
// sample. What a spin overshot, or what host work alone outlasted the model
// by, is credited to the goroutine's next settle, up to tickNS. So between a
// store and its fence the ledger carries the persist's whole device time,
// after a settle it holds no debt, and over any run of settled charges a
// goroutine is never charged less than their sum. Flush still copies its
// lines to media at once; only its time waits for the fence.
type CostModel struct {
	// Base latencies, nanoseconds per access (not per line).
	ReadLatencyNS  int64 // media read, paid when the line is not cached
	WriteLatencyNS int64 // store absorbed by ADR
	FlushNS        int64 // CLWB
	FenceNS        int64 // SFENCE

	// Bandwidth, expressed as nanoseconds of device time per cacheline.
	// Aggregate throughput is capped near 1 line per this many ns.
	ReadLineNS  int64
	WriteLineNS int64

	// Device-busy-until times on the obs.Now timeline, one per direction.
	readClock  atomic.Int64
	writeClock atomic.Int64

	ledger [obs.Shards]ledgerShard
}

// DefaultOptane returns a cost model shaped like the paper's testbed:
// 6 interleaved 128GB DIMMs, ~300ns media reads, writes absorbed by ADR,
// ~10GB/s aggregate random-read and ~2.5GB/s random-write bandwidth.
func DefaultOptane() *CostModel {
	return &CostModel{
		ReadLatencyNS:  300,
		WriteLatencyNS: 90,
		FlushNS:        80,
		FenceNS:        25,
		ReadLineNS:     7,  // ≈ 9.1 GB/s aggregate
		WriteLineNS:    26, // ≈ 2.5 GB/s aggregate
	}
}

// regulate books costNS of device time on clock and returns how many
// nanoseconds past now the access completes: costNS on an idle device (its
// clock at or behind now), whose clock moves to now + costNS, so an access
// books its own bandwidth and idle time is never banked as credit; more on a
// busy one, whose clock it pushes back by costNS.
func regulate(clock *atomic.Int64, now, costNS int64) int64 {
	for {
		c := clock.Load()
		if c > now {
			return clock.Add(costNS) - now
		}
		if clock.CompareAndSwap(c, now+costNS) {
			return costNS
		}
	}
}

// tickNS is the most credit a spin may bank, however late a pre-empted one
// wakes or however long the host work before it took: a power of two near
// one clock read, which is what an undisturbed spin overshoots its deadline
// by.
const tickNS = 64

// ledgerShard is one goroutine's carry (keyed by goShard): what its stores
// and flushes since its last settle owe (pend: their base latencies, not yet
// spun, and the write lines they have not yet booked on the bandwidth
// regulator); the entry clock of the first of them that took one (from, 0 if
// none did); and the time its last spin ran past its deadline, which the
// next settle need not spin again (credit, at most tickNS). Every field
// moves only by Add, Swap or a CAS from 0, by exactly what one charge added
// or took, so the ledger stays conserved when goroutines share a shard: a
// collision can move debt to another goroutine's settle, never lose device
// time or spend a credit twice.
type ledgerShard struct {
	pend   atomic.Int64
	from   atomic.Int64
	credit atomic.Int64
	_      [40]byte // pad to a cacheline
}

// pend is one word so that a deferred charge is one Add and a settle takes
// both of its parts with one Swap: the debt in nanoseconds below bit
// pendLineShift (2^36 ns, 68 s), the lines above it. deferWrite settles a
// shard whose word has reached half of either range, so neither spills into
// the other however long a goroutine goes without a fence.
const (
	pendLineShift = 36
	pendDebtMask  = 1<<pendLineShift - 1
	pendFull      = 1<<(pendLineShift-1) | 1<<62
)

// charged is what the model decided one access costs, known before it spins:
// the base latency, and the bandwidth queueing beyond it.
type charged struct{ baseNS, queueNS int64 }

// deferWrite books a store's or a flush's base latency and lines on the
// calling goroutine's ledger for its next settle. The first deferred charge
// since the last settle also records where the persist began: entry, the
// door's clock read before the host store, or, for a charge whose door took
// none (a Flush or TouchWrite of quiet stores), a clock read of its own, so
// the fence of a bare persist does not add the flush's host time to the
// model's. Later charges of the persist read no clock.
func (m *CostModel) deferWrite(lines uint64, latencyNS, entry int64) charged {
	c := charged{baseNS: latencyNS}
	sh := &m.ledger[goShard()]
	if sh.from.Load() == 0 {
		if entry == 0 {
			entry = obs.Now()
		}
		sh.from.CompareAndSwap(0, entry)
	}
	if sh.pend.Add(int64(lines)<<pendLineShift+latencyNS)&pendFull != 0 {
		m.settle(&c, 0, obs.Now())
	}
	return c
}

// settle is the one spin kernel. It makes the calling goroutine's wall time
// pass for c plus the ledger's debt, less its credit, counted from the
// oldest of the ledger's from and entry (the caller's own entry clock, 0 if
// none; now if neither is set); now is a clock read the caller already
// made, the spin's first loop sample. It books the ledger's pending write
// lines on the write clock at now: when the device completes them later than
// c and the debt add up to, the difference is queueing, added to c, and the
// spin lasts until the device is done with them — counted from now, not
// from, since the lines were booked now: a persist whose host work (a
// split's copy) outlasted its latencies waits for its own bandwidth, instead
// of leaving it on the clock for the goroutine's next settle to queue
// behind. What the last loop read shows the spin overshot is the next
// settle's credit, clamped to tickNS.
func (m *CostModel) settle(c *charged, entry, now int64) {
	sh := &m.ledger[goShard()]
	from := entry
	if sh.from.Load() != 0 {
		if f := sh.from.Swap(0); f != 0 && (from == 0 || f < from) {
			from = f
		}
	}
	if from == 0 {
		from = now
	}
	var pend int64
	if sh.pend.Load() != 0 {
		pend = sh.pend.Swap(0)
	}
	credit := sh.credit.Load()
	owed := c.baseNS + c.queueNS + pend&pendDebtMask
	deadline := from + owed - credit
	if lines := pend >> pendLineShift; lines != 0 {
		if q := regulate(&m.writeClock, now, lines*m.WriteLineNS); q > owed {
			c.queueNS += q - owed
			deadline = now + q
		}
	}
	for ; ; now = obs.Now() {
		if over := now - deadline; over >= 0 {
			sh.credit.Add(min(over, tickNS) - credit)
			return
		}
	}
}

// chargeRead prices one read of lines. Its clock read, taken after the host
// access, serves the bandwidth regulator and is the spin's first loop
// sample; the spin, the read's latency or the queueing past it, whichever is
// longer, plus whatever the ledger carries, counts from entry, the door's
// clock read taken before the host access (or the ledger's older from). The
// regulator keeps the read after the access: an entry clock that reached it
// late, behind another goroutine's later read, would book the device's idle
// time in between as queueing.
func (m *CostModel) chargeRead(lines uint64, entry int64) charged {
	now := obs.Now()
	c := charged{baseNS: m.ReadLatencyNS}
	if q := regulate(&m.readClock, now, int64(lines)*m.ReadLineNS); q > c.baseNS {
		c.queueNS = q - c.baseNS
	}
	m.settle(&c, entry, now)
	return c
}

// A store is absorbed by ADR: it costs its latency, paid at the next settle.
func (m *CostModel) chargeWrite(lines uint64, entry int64) charged {
	return m.deferWrite(lines, m.WriteLatencyNS, entry)
}

// A flush (CLWB) is asynchronous: its latency and the write bandwidth its
// lines consume are paid at the next settle. An untracked flush touches no
// host memory, so its door takes no entry clock.
func (m *CostModel) chargeFlush(lines uint64) charged {
	return m.deferWrite(lines, m.FlushNS, 0)
}

// A fence waits for the goroutine's outstanding stores and flushes.
func (m *CostModel) chargeFence() charged {
	c := charged{baseNS: m.FenceNS}
	m.settle(&c, 0, obs.Now())
	return c
}

// Deferred sums, over every goroutine's ledger, the device time charged but
// not yet paid by a fence or a charged read, and the write lines not yet
// booked on the bandwidth regulator. A goroutine's op that ends in its fence
// leaves none of either behind.
func (m *CostModel) Deferred() (ns, lines int64) {
	for i := range m.ledger {
		p := m.ledger[i].pend.Load()
		ns += p & pendDebtMask
		lines += p >> pendLineShift
	}
	return ns, lines
}
