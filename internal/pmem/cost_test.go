package pmem

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dash/internal/obs"
	"dash/internal/obs/obstest"
)

// chargeKind is a priced pool call, with the nominal device time one call
// owes under model m (an uncontended single line), and whether the call
// settles the goroutine's ledger (a read or a fence does; a store or a flush
// only defers its time to the next fence).
type chargeKind struct {
	name    string
	nominal func(m *CostModel) int64
	do      func(p *Pool, a Addr)
	settles bool
}

// chargeKinds are the five priced pool calls.
var chargeKinds = []chargeKind{
	{"read", func(m *CostModel) int64 { return m.ReadLatencyNS }, func(p *Pool, a Addr) { p.ReadU64(a) }, true},
	{"write", func(m *CostModel) int64 { return m.WriteLatencyNS }, func(p *Pool, a Addr) { p.WriteU64(a, 1) }, false},
	{"flush", func(m *CostModel) int64 { return m.FlushNS }, func(p *Pool, a Addr) { p.Flush(a, 8) }, false},
	{"fence", func(m *CostModel) int64 { return m.FenceNS }, func(p *Pool, _ Addr) { p.Fence() }, true},
	{"persist", func(m *CostModel) int64 { return m.FlushNS + m.FenceNS }, func(p *Pool, a Addr) { p.Persist(a, 8) }, true},
}

// storePersist is a store and the flush and fence that persist it: one
// spin pays all three. Host-bound on the reference box (two clock reads and
// the door's bookkeeping outlast its 195 ns), so it has no place in
// TestChargeAccuracy's upper bound; the tests that bound it from below and
// BenchmarkCharge run it beside the five calls.
var storePersist = chargeKind{"store-persist", func(m *CostModel) int64 { return m.WriteLatencyNS + m.FlushNS + m.FenceNS },
	func(p *Pool, a Addr) { p.WriteU64(a, 1); p.Persist(a, 8) }, true}

// withStorePersist is chargeKinds and storePersist.
var withStorePersist = append(chargeKinds[:len(chargeKinds):len(chargeKinds)], storePersist)

func costPool(t testing.TB, m *CostModel) *Pool {
	t.Helper()
	p, err := NewPool(Options{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	p.SetModel(m)
	return p
}

// lineAddr strides a line per call over half the test pool.
func lineAddr(i int) Addr { return Addr(4096 + (i&8191)*CachelineSize) }

// ledgerSum adds up the ledger — deferred debt less credit — and checks that
// no shard holds more credit than tickNS.
func ledgerSum(t *testing.T, m *CostModel) int64 {
	t.Helper()
	var sum int64
	for i := range m.ledger {
		d, c := m.ledger[i].pend.Load()&pendDebtMask, m.ledger[i].credit.Load()
		if c < 0 || c > tickNS {
			t.Fatalf("ledger shard %d holds %d ns of credit, outside [0, %d]", i, c, tickNS)
		}
		sum += d - c
	}
	return sum
}

// requireSettled fails unless every ledger shard holds no deferred debt, no
// pending write lines and no entry clock: what a fence or a charged read
// leaves behind.
func requireSettled(t *testing.T, m *CostModel) {
	t.Helper()
	for i := range m.ledger {
		sh := &m.ledger[i]
		if p, f := sh.pend.Load(), sh.from.Load(); p != 0 || f != 0 {
			t.Fatalf("ledger shard %d holds %d ns of debt, %d lines, from %d after a settle", i, p&pendDebtMask, p>>pendLineShift, f)
		}
	}
}

// setCredit gives every ledger shard credit ns of credit (and no debt).
func setCredit(m *CostModel, credit int64) {
	for i := range m.ledger {
		m.ledger[i].pend.Store(0)
		m.ledger[i].credit.Store(credit)
	}
}

// run makes n calls of kind, then a fence if the kind leaves its time on
// the ledger, and returns the wall time they took, how far the ledger moved
// (positive is device time charged but not spun: credit drawn down), and the
// device time owed (n nominal calls, plus the closing fence).
func run(t *testing.T, p *Pool, kind chargeKind, n int) (elapsed, unspent, owed int64) {
	t.Helper()
	m := p.Model()
	before := ledgerSum(t, m)
	owed = int64(n) * kind.nominal(m)
	t0 := obs.Now()
	for i := 0; i < n; i++ {
		kind.do(p, lineAddr(i))
	}
	if !kind.settles {
		p.Fence()
		owed += m.FenceNS
	}
	elapsed = obs.Now() - t0
	return elapsed, ledgerSum(t, m) - before, owed
}

// TestNeverUnderCharges: n charges on one goroutine, and the fence that pays
// for them, take at least their nominal price, less only what the ledger
// still holds back — nothing from an empty ledger (the spin banks credit,
// never debt); from a ledger seeded with the maximum credit, that credit
// and not a nanosecond more. And every single call, from an empty ledger,
// takes its nominal price from the door's entry on: a store → flush → fence
// at least 90 + 80 + 25 ns.
func TestNeverUnderCharges(t *testing.T) {
	const n, single = 20_000, 1_000
	for _, kind := range withStorePersist {
		for _, seeded := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/seeded=%v", kind.name, seeded), func(t *testing.T) {
				m := DefaultOptane()
				p := costPool(t, m)
				slack := int64(0)
				if seeded {
					setCredit(m, tickNS)
					slack = tickNS
				}
				elapsed, unspent, want := run(t, p, kind, n)
				if elapsed+unspent < want {
					t.Errorf("%d calls took %d ns with %d ns left on the ledger; owed %d", n, elapsed, unspent, want)
				}
				if unspent > slack {
					t.Errorf("ledger holds back %d ns, more than %d", unspent, slack)
				}
				requireSettled(t, m)
			})
		}
		t.Run(kind.name+"/single", func(t *testing.T) {
			m := DefaultOptane()
			p := costPool(t, m)
			for i := 0; i < single; i++ {
				setCredit(m, 0)
				if elapsed, _, want := run(t, p, kind, 1); elapsed < want {
					t.Fatalf("call %d took %d ns from an empty ledger; owed %d", i, elapsed, want)
				}
			}
		})
	}
}

// TestLedgerStaysInBounds checks the ledger after every single call: no
// shard ever holds more than tickNS of credit, and after every call that
// settles (a fence, a charged read) no shard holds deferred debt, pending
// lines or an entry clock. On the default model and on one priced at a
// sixteenth of it, where every charge is smaller than a clock read.
func TestLedgerStaysInBounds(t *testing.T) {
	cheap := &CostModel{ReadLatencyNS: 18, WriteLatencyNS: 5, FlushNS: 5, FenceNS: 1, WriteLineNS: 1}
	for _, m := range []*CostModel{DefaultOptane(), cheap} {
		p := costPool(t, m)
		for i := 0; i < 5_000; i++ {
			kind := withStorePersist[i%len(withStorePersist)]
			kind.do(p, lineAddr(i))
			ledgerSum(t, m)
			if kind.settles {
				requireSettled(t, m)
			}
		}
	}
}

// TestChargeAccuracy: the mean cost of a call, its fence's share included,
// stays within 150 ns of its nominal price — loose enough for any box,
// tight enough that a persist cannot go back to a spin per call (+2 clock
// reads and an overshoot each) unnoticed.
func TestChargeAccuracy(t *testing.T) {
	if raceEnabled {
		t.Skip("timing bound; the race detector multiplies the cost of the spin loop")
	}
	const n, tries = 20_000, 5
	for _, kind := range chargeKinds {
		m := DefaultOptane()
		p := costPool(t, m)
		best := int64(1) << 62
		for try := 0; try < tries; try++ { // best of a few: a pre-empted run says nothing about the kernel
			if elapsed, _, _ := run(t, p, kind, n); elapsed/n < best {
				best = elapsed / n
			}
		}
		if nominal := kind.nominal(m); best > nominal+150 {
			t.Errorf("%s: %d ns per call, nominal %d", kind.name, best, nominal)
		}
	}
}

// TestPreemptedSpinBanksOneTick: a spin that wakes a millisecond late (its
// entry clock read is that stale by the first loop read) banks exactly one
// tick, and the next 1000 charges are paid in full.
func TestPreemptedSpinBanksOneTick(t *testing.T) {
	for _, kind := range withStorePersist {
		m := DefaultOptane()
		p := costPool(t, m)
		c := charged{baseNS: m.ReadLatencyNS}
		m.settle(&c, obs.Now()-int64(time.Millisecond), obs.Now())
		if got := ledgerSum(t, m); got != -tickNS {
			t.Fatalf("%s: late spin banked %d ns, want %d", kind.name, got, -tickNS)
		}
		const n = 1000
		elapsed, unspent, want := run(t, p, kind, n)
		if elapsed+unspent < want || unspent > 2*tickNS {
			t.Errorf("%s: %d calls after a late spin took %d ns (+%d on the ledger); owed %d", kind.name, n, elapsed, unspent, want)
		}
	}
}

// TestChargeCountsFromEntryClock: a read's spin counts from the clock read
// its door took before the host access, and a write's — a store, then the
// flush and fence that persist it — from the one its store's door took. One
// whose entry lies further back than its device time returns at its first
// clock read, books exactly its modelled time and banks at most one tick of
// credit; one entered now still waits its full time; host time spent
// between the access and the settle (for a write, between the store and
// the fence) counts toward it. The bandwidth regulator reads the clock
// after the access (for a write, at the fence) instead: an entry older than
// an idle device's last booking books no queueing. The device times are
// 20 µs, so "did not spin" is a bound no clock read or pre-emption-free call
// comes near.
func TestChargeCountsFromEntryClock(t *testing.T) {
	const latency = 20_000
	// A write's store, flush and fence: 9 + 8 + 3 µs.
	const write, flush, fence = 9_000, 8_000, 3_000
	for _, kind := range []struct {
		name string
		// charge makes the access at a with door entry clock now, runs
		// host for the time between the access and its settle, and
		// settles.
		charge func(p *Pool, a Addr, now int64, host func())
		clock  func(m *CostModel) *atomic.Int64
		want   DeviceNS
	}{
		{"read", func(p *Pool, a Addr, now int64, host func()) { host(); p.onRead(a, 8, now) },
			func(m *CostModel) *atomic.Int64 { return &m.readClock }, DeviceNS{Read: latency}},
		{"write", func(p *Pool, a Addr, now int64, host func()) {
			p.onWrite(a, 8, now)
			host()
			p.Persist(a, 8)
		}, func(m *CostModel) *atomic.Int64 { return &m.writeClock }, DeviceNS{Write: write, Flush: flush, Fence: fence}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			m := &CostModel{ReadLatencyNS: latency, WriteLatencyNS: write, FlushNS: flush, FenceNS: fence, ReadLineNS: 7, WriteLineNS: 26}
			p := costPool(t, m)
			noHost := func() {}
			took := int64(1) << 62
			for try := 0; try < 5; try++ { // best of a few: a pre-empted call says nothing
				setCredit(m, 0)
				before := p.Stats()
				t0 := obs.Now()
				kind.charge(p, lineAddr(try), t0-10*latency, noHost)
				took = min(took, obs.Now()-t0)
				if got := p.Stats().Sub(before).DeviceNS; got != kind.want {
					t.Errorf("a late-entered charge booked %+v, want %+v", got, kind.want)
				}
				if credit := -ledgerSum(t, m); credit < 0 || credit > tickNS {
					t.Errorf("a late-entered charge left %d ns of credit, want 0..%d", credit, tickNS)
				}
				requireSettled(t, m)
			}
			if took >= latency/2 {
				t.Errorf("a late-entered charge took %d ns: it spun, though its %d ns had passed at entry", took, latency)
			}

			setCredit(m, 0)
			t0 := obs.Now()
			kind.charge(p, lineAddr(8), t0, noHost)
			if took, unspent := obs.Now()-t0, ledgerSum(t, m); took+unspent < latency {
				t.Errorf("a charge entered now took %d ns (+%d on the ledger), want its %d ns", took, unspent, latency)
			}

			// Host work that outlasts the model between the access and its
			// settle: the settle has nothing left to spin.
			took = int64(1) << 62
			for try := 0; try < 5; try++ {
				setCredit(m, 0)
				t0 := obs.Now()
				var settled int64
				kind.charge(p, lineAddr(10+try), t0, func() {
					for obs.Now() < t0+latency {
					}
					settled = obs.Now()
				})
				took = min(took, obs.Now()-settled)
				requireSettled(t, m)
			}
			if took >= latency/2 {
				t.Errorf("a settle after %d ns of host work took %d ns: the host time did not count", latency, took)
			}

			now := obs.Now()
			kind.clock(m).Store(now)
			before := p.Stats()
			kind.charge(p, lineAddr(9), now-2*latency, noHost)
			if got := p.Stats().Sub(before).DeviceNS; got != kind.want {
				t.Errorf("a charge entered before an idle device's last booking booked %+v, want %+v", got, kind.want)
			}
		})
	}
}

// TestRegulate pins the bandwidth regulator without a wall clock: an access
// on an idle device (its clock behind now, or at it) completes its own
// service time after now and moves the clock there; one on a busy device
// queues behind the clock and pushes it back by its service time. A split's
// 232-line sibling persist books its 232 × 26 ns of write bandwidth, and a
// fresh pool's fence that pays for it queues for what that exceeds the
// persist's latencies by.
func TestRegulate(t *testing.T) {
	const now = 1_000_000
	var clock atomic.Int64
	for _, tc := range []struct {
		name              string
		clock, cost, want int64
	}{
		{"idle", now - 500, 26, 26},
		{"idle at now", now, 26, 26},
		{"busy", now + 500, 26, 526},
		{"232-line persist, idle", 0, 232 * 26, 6_032},
		{"232-line persist, busy", now + 100, 232 * 26, 6_132},
	} {
		clock.Store(tc.clock)
		if got := regulate(&clock, now, tc.cost); got != tc.want {
			t.Errorf("%s: regulate = %d, want %d", tc.name, got, tc.want)
		}
		if got := clock.Load(); got != now+tc.want {
			t.Errorf("%s: clock at %d after regulate, want now + %d", tc.name, got-now, tc.want)
		}
	}

	m := DefaultOptane()
	p := costPool(t, m)
	const lines = 232
	p.Persist(lineAddr(0), lines*CachelineSize)
	want := DeviceNS{Flush: 80, Fence: 25, Queue: lines*26 - 80 - 25}
	if got := p.Stats().DeviceNS; got != want {
		t.Errorf("a %d-line persist on a fresh pool booked %+v, want %+v", lines, got, want)
	}
}

// TestDeferWriteSettlesAFullLedger: a goroutine whose deferred debt or
// lines reach half of their part of the pend word without a settle pays
// them at its next deferred charge, so neither part spills into the other.
// The seeded debt is long since due and the model books no bandwidth, so the
// settle does not spin.
func TestDeferWriteSettlesAFullLedger(t *testing.T) {
	for _, seed := range []int64{1<<(pendLineShift-1) - 50, (1<<26 - 1) << pendLineShift} {
		m := &CostModel{WriteLatencyNS: 90, FlushNS: 80, FenceNS: 25}
		p := costPool(t, m)
		sh := &m.ledger[obs.GoShard()]
		sh.from.Store(obs.Now() - 100*int64(time.Second))
		sh.pend.Store(seed)
		p.WriteU64(lineAddr(0), 1)
		requireSettled(t, m)
	}
}

// TestLedgerOneShardPerGoroutine: a goroutine's stores at 200 call depths
// all defer onto its own ledger shard, and the fence it issues at the
// deepest of them settles that shard; then again after its stack has moved.
func TestLedgerOneShardPerGoroutine(t *testing.T) {
	const depths = 200
	m := &CostModel{WriteLatencyNS: 90, FenceNS: 25}
	p := costPool(t, m)
	var stores, strays int64
	moved := obstest.AtDepths(depths, func(d int) {
		p.WriteU64(lineAddr(d), uint64(d))
		stores++
		if m.ledger[obs.GoShard()].pend.Load() != stores<<pendLineShift+stores*m.WriteLatencyNS {
			strays++
		}
		if d == depths {
			p.Fence()
			stores = 0
		}
	})
	if !moved {
		t.Fatal("the large-frame recursion did not move the goroutine's stack")
	}
	if strays != 0 {
		t.Errorf("after %d of %d stores the goroutine's ledger shard did not hold every store since its fence", strays, 2*depths)
	}
	requireSettled(t, m)
}

// hammer runs g goroutines of n single-line reads each and returns aggregate
// lines per second.
func hammer(p *Pool, g, n int) float64 {
	var wg sync.WaitGroup
	t0 := obs.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				p.ReadU64(lineAddr(w*n + i))
			}
		}(w)
	}
	wg.Wait()
	return float64(g*n) / (float64(obs.Now()-t0) / 1e9)
}

// TestBandwidthPlateau: with the device good for one line per 2 µs and four
// goroutines each wanting one per 300 ns, aggregate throughput sits at the
// device's rate; one goroutine asking for less than the device gives pays
// latency only. The model is a struct literal on purpose: nothing but its
// exported fields is needed for it to regulate.
func TestBandwidthPlateau(t *testing.T) {
	if raceEnabled {
		t.Skip("timing bound")
	}
	m := &CostModel{ReadLatencyNS: 300, ReadLineNS: 2000}
	p := costPool(t, m)
	capacity := 1e9 / float64(m.ReadLineNS)
	if got := hammer(p, 4, 2_000); got < 0.8*capacity || got > 1.2*capacity {
		t.Errorf("4 goroutines: %.0f lines/s, device capacity %.0f", got, capacity)
	}

	m = &CostModel{ReadLatencyNS: 2000, ReadLineNS: 300}
	p = costPool(t, m)
	const n = 2_000
	if got, ceil := hammer(p, 1, n), 1e9/float64(m.ReadLatencyNS); got > ceil || got < 0.8*ceil {
		t.Errorf("1 goroutine under capacity: %.0f lines/s, latency allows %.0f", got, ceil)
	}
}

// TestLiteralModelRegulates: a CostModel built as a struct literal, not by
// DefaultOptane, queues an over-subscribed device — the model keeps no state
// that only a constructor can set up.
func TestLiteralModelRegulates(t *testing.T) {
	m := &CostModel{ReadLatencyNS: 50, ReadLineNS: 1000}
	p := costPool(t, m)
	const n = 2_000
	t0 := obs.Now()
	for i := 0; i < n; i++ {
		p.ReadU64(lineAddr(i))
	}
	elapsed, want := obs.Now()-t0, int64(n-1)*m.ReadLineNS
	if elapsed < want {
		t.Errorf("%d reads of a 1 line/µs device took %d ns, want >= %d", n, elapsed, want)
	}
	// The wait is booked as queueing, beside the base latency. (Less than
	// the whole gap between two reads: the time the caller spent outside
	// the model had already passed on the device's clock — all of it, under
	// the race detector, where a call outlasts the line's microsecond.)
	d := p.Stats().DeviceNS
	if d.Read != uint64(n*m.ReadLatencyNS) || d.Total() > uint64(elapsed) || (!raceEnabled && d.Queue < uint64(want/2)) {
		t.Errorf("booked %+v over %d ns: want read %d, queue in [%d, elapsed - read]", d, elapsed, n*m.ReadLatencyNS, want/2)
	}
}

// TestDeviceTimeBooked: every charge books the nominal price it decided on
// under its own category — from four goroutines at once, so the regulator
// clocks and the ledger are shared under the race detector too — windows
// subtract, pools add, and the registry shows the same figures.
func TestDeviceTimeBooked(t *testing.T) {
	m := &CostModel{ReadLatencyNS: 150, WriteLatencyNS: 45, FlushNS: 40, FenceNS: 12, ReadLineNS: 3, WriteLineNS: 13}
	p := costPool(t, m)
	before := p.Stats()
	const n, workers = 300, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				a := lineAddr(i)
				p.ReadU64(a)
				p.WriteU64(a, 1)
				p.Persist(a, 8)
			}
		}(w)
	}
	wg.Wait()
	got := p.Stats().Sub(before).DeviceNS
	// Four writers can briefly queue on the write clock; how long is theirs
	// to decide, the four base categories are exact.
	want := DeviceNS{Read: n * 150, Write: n * 45, Flush: n * 40, Fence: n * 12, Queue: got.Queue}
	if got != want {
		t.Errorf("booked %+v, want %+v", got, want)
	}
	if sum := p.Stats().Add(p.Stats()).DeviceNS; sum.Total() != 2*want.Total() {
		t.Errorf("Add: total %d, want %d", sum.Total(), 2*want.Total())
	}
	r := obs.NewRegistry()
	p.RegisterMetrics(r)
	if c := r.Snapshot().Counters; c["pmem.device_ns.read"] != want.Read || c["pmem.device_ns.fence"] != want.Fence || c["pmem.device_ns.queue"] != want.Queue {
		t.Errorf("registry counters %v", c)
	}
}

// BenchmarkCharge times each priced call at 1 and 2 goroutines; ns/call is
// per goroutine, so the second row shows what sharing the regulator clocks'
// cachelines costs.
func BenchmarkCharge(b *testing.B) {
	for _, kind := range withStorePersist {
		for _, g := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/g=%d", kind.name, g), func(b *testing.B) {
				p := costPool(b, DefaultOptane())
				var wg sync.WaitGroup
				b.ResetTimer()
				for w := 0; w < g; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < b.N; i++ {
							kind.do(p, lineAddr(w*4096+i&4095))
						}
					}(w)
				}
				wg.Wait()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/call")
			})
		}
	}
}
