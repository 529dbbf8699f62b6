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
// as the cheapest thing being priced: 56 ns per read in the benchmark's own
// probe (bench.clock_read_ns) on the 2-CPU reference box, 66–83 ns per
// obs.Now in a tight loop there. So a spin's deadline counts from an entry
// clock that the pool's door (access.go) reads before the host access the
// charge prices, so the host's own cache and TLB misses on the arena count
// toward the modelled latency instead of being added to it; Flush and
// Fence, which touch no arena on an untracked pool, take none. The charge's
// own read, after the access, serves the bandwidth regulator and is the
// spin's first loop sample, so a charged access that has to spin reads the
// clock no more often than one priced from that read alone. Each
// charge settles through a per-goroutine carry ledger (spend): what a spin
// overshot — or what the host access alone outlasted the model by — is
// credited to the goroutine's next charge, and a charge smaller than a
// clock read waits on the ledger for the next spin. The ledger moves time
// between adjacent charges of one goroutine and bounds how much: credit
// never exceeds tickNS and debt stays below deferNS, so a goroutine is never
// ahead of or behind its device time by 100 ns, and over any run of charges
// it is never charged less than their sum. Flush is still eager and
// synchronous; the ledger is the seam an asynchronous Flush with a draining
// Fence would book into.
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
// nanoseconds past now the access completes (0 when under capacity). One
// read-modify-write of the shared clock line either way.
func regulate(clock *atomic.Int64, now, costNS int64) int64 {
	c := clock.Load()
	if c+costNS < now {
		// Device idle: pull the clock up so idle time is not banked as
		// credit. A lost race only under-charges one access.
		clock.CompareAndSwap(c, now)
		return 0
	}
	return clock.Add(costNS) - now
}

// The carry ledger's two bounds. The spin loop samples the clock once per
// read, 56–83 ns on the reference box, so an undisturbed spin overshoots its
// deadline by about one read; tickNS, a power of two near one read, is the
// most credit a spin may bank, however late a pre-empted one wakes or
// however long the host access before it took. deferNS is the smallest
// charge worth a clock read of its own: below the cheapest read measured,
// above the 25 ns fence, and no more than tickNS/2 so the debt a goroutine
// parks on two shards still sums to under one tick.
const (
	tickNS  = 64
	deferNS = 32
)

// ledgerShard is one goroutine's carry (keyed like obs.Counter): device time
// charged but not yet spun (0 < carry < deferNS), or time a spin ran past its
// deadline and the next charge need not spin again (-tickNS <= carry < 0).
type ledgerShard struct {
	carry atomic.Int64
	_     [56]byte // pad to a cacheline
}

// spend is the one spin kernel. It makes the calling goroutine's wall time
// pass for ns of device time plus whatever its ledger carries, measured from
// from — the door's entry clock read, or 0 to measure from the first clock
// read — and takes now, a clock read the caller already made (0 if none), as
// its first loop sample. What it owes below deferNS rides on the ledger to
// the goroutine's next charge instead of buying clock reads of its own; what
// the last loop read shows the spin overshot is credited to that next charge,
// clamped to tickNS. The carry only ever moves by Add, by exactly what this
// charge added to or took from it, so it stays conserved when goroutines
// share a shard or one goroutine's call depths straddle two: a collision can
// push a shard past a bound until its next charge settles it, never lose
// device time or spend a credit twice.
func (m *CostModel) spend(ns, from, now int64) {
	sh := &m.ledger[obs.GoShard()]
	carry := sh.carry.Load()
	owed := ns + carry
	if owed < deferNS {
		sh.carry.Add(ns)
		return
	}
	if now == 0 {
		now = obs.Now()
	}
	if from == 0 {
		from = now
	}
	deadline := from + owed
	for ; ; now = obs.Now() {
		if over := now - deadline; over >= 0 {
			sh.carry.Add(-carry - min(over, tickNS))
			return
		}
	}
}

// charged is what the model decided one access costs, known before it spins:
// the base latency, and the bandwidth queueing beyond it.
type charged struct{ baseNS, queueNS int64 }

// charge prices one regulated access. Its clock read, taken after the host
// access, serves the bandwidth regulator (busyNS of device time on clock)
// and is the spin's first loop sample; the spin, latencyNS or the queueing
// past it, whichever is longer, counts from entry, the door's clock read
// taken before the host access, so it pays only what the access left of the
// modelled time. The regulator keeps the read after the access: an entry
// clock that reached it late, behind another goroutine's later read, would
// book the device's idle time in between as queueing. entry 0 means the
// caller took none (nothing came before the charge).
func (m *CostModel) charge(clock *atomic.Int64, busyNS, latencyNS, entry int64) charged {
	now := obs.Now()
	c := charged{baseNS: latencyNS}
	if q := regulate(clock, now, busyNS); q > c.baseNS {
		c.queueNS = q - c.baseNS
	}
	m.spend(c.baseNS+c.queueNS, entry, now)
	return c
}

func (m *CostModel) chargeRead(lines uint64, entry int64) charged {
	return m.charge(&m.readClock, int64(lines)*m.ReadLineNS, m.ReadLatencyNS, entry)
}

func (m *CostModel) chargeWrite(lines uint64, entry int64) charged {
	return m.charge(&m.writeClock, int64(lines)*m.WriteLineNS, m.WriteLatencyNS, entry)
}

// A flush pushes the lines toward media, consuming write bandwidth. It takes
// its clock read at the charge: an untracked flush touches no host memory.
func (m *CostModel) chargeFlush(lines uint64) charged {
	return m.charge(&m.writeClock, int64(lines)*m.WriteLineNS, m.FlushNS, 0)
}

func (m *CostModel) chargeFence() charged {
	c := charged{baseNS: m.FenceNS}
	m.spend(c.baseNS, 0, 0)
	return c
}
