package pmem

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dash/internal/obs"
)

// chargeKinds are the five priced pool calls, each with the nominal device
// time one call owes under model m (an uncontended single line).
var chargeKinds = []struct {
	name    string
	nominal func(m *CostModel) int64
	do      func(p *Pool, a Addr)
}{
	{"read", func(m *CostModel) int64 { return m.scale(m.ReadLatencyNS) }, func(p *Pool, a Addr) { p.ReadU64(a) }},
	{"write", func(m *CostModel) int64 { return m.scale(m.WriteLatencyNS) }, func(p *Pool, a Addr) { p.WriteU64(a, 1) }},
	{"flush", func(m *CostModel) int64 { return m.scale(m.FlushNS) }, func(p *Pool, a Addr) { p.Flush(a, 8) }},
	{"fence", func(m *CostModel) int64 { return m.scale(m.FenceNS) }, func(p *Pool, _ Addr) { p.Fence() }},
	{"persist", func(m *CostModel) int64 { return m.scale(m.FlushNS) + m.scale(m.FenceNS) }, func(p *Pool, a Addr) { p.Persist(a, 8) }},
}

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

// carrySum adds up the ledger and checks each shard against the two bounds.
func carrySum(t *testing.T, m *CostModel) int64 {
	t.Helper()
	var sum int64
	for i := range m.ledger {
		c := m.ledger[i].carry.Load()
		if c < -tickNS || c >= deferNS {
			t.Fatalf("ledger shard %d carries %d ns, outside [-%d, %d)", i, c, tickNS, deferNS)
		}
		sum += c
	}
	return sum
}

func setCarry(m *CostModel, c int64) {
	for i := range m.ledger {
		m.ledger[i].carry.Store(c)
	}
}

// run makes n calls of kind k and returns the wall time they took and how far
// the ledger moved: positive is device time charged but not spun (credit
// drawn down, or debt still riding).
func run(t *testing.T, p *Pool, k int, n int) (elapsed, unspent int64) {
	t.Helper()
	m := p.Model()
	before := carrySum(t, m)
	t0 := obs.Now()
	for i := 0; i < n; i++ {
		chargeKinds[k].do(p, lineAddr(i))
	}
	elapsed = obs.Now() - t0
	return elapsed, carrySum(t, m) - before
}

// TestNeverUnderCharges: n charges on one goroutine take at least n times
// the nominal price, less only what still rides on the ledger — under one
// tick from an empty ledger; from a ledger seeded with the maximum credit,
// that credit (on the at most two shards one goroutine's call depths reach)
// and not a nanosecond more.
func TestNeverUnderCharges(t *testing.T) {
	const n = 20_000
	for k, kind := range chargeKinds {
		for _, seeded := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/seeded=%v", kind.name, seeded), func(t *testing.T) {
				m := DefaultOptane()
				p := costPool(t, m)
				slack := int64(tickNS)
				if seeded {
					setCarry(m, -tickNS)
					slack = 3 * tickNS
				}
				elapsed, unspent := run(t, p, k, n)
				want := n * kind.nominal(m)
				if elapsed+unspent < want {
					t.Errorf("%d calls took %d ns with %d ns left on the ledger; owed %d", n, elapsed, unspent, want)
				}
				if unspent > slack {
					t.Errorf("ledger holds back %d ns, more than %d", unspent, slack)
				}
			})
		}
	}
}

// TestLedgerStaysInBounds checks the carry after every single call (carrySum
// fails on a shard outside [-tickNS, deferNS)), on the default model and on
// one scaled until every charge is smaller than a clock read.
func TestLedgerStaysInBounds(t *testing.T) {
	for _, m := range []*CostModel{DefaultOptane(), ScaledOptane(16)} {
		p := costPool(t, m)
		for i := 0; i < 5_000; i++ {
			chargeKinds[i%len(chargeKinds)].do(p, lineAddr(i))
			carrySum(t, m)
		}
	}
}

// TestChargeAccuracy: the mean cost of a call stays within 150 ns of its
// nominal price — loose enough for any box, tight enough that a charge
// cannot go back to reading the clock five times (+200 ns) unnoticed.
func TestChargeAccuracy(t *testing.T) {
	if raceEnabled {
		t.Skip("timing bound; the race detector multiplies the cost of the spin loop")
	}
	const n, tries = 20_000, 5
	for k, kind := range chargeKinds {
		m := DefaultOptane()
		p := costPool(t, m)
		best := int64(1) << 62
		for try := 0; try < tries; try++ { // best of a few: a pre-empted run says nothing about the kernel
			if elapsed, _ := run(t, p, k, n); elapsed/n < best {
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
	for k, kind := range chargeKinds {
		m := DefaultOptane()
		p := costPool(t, m)
		m.spend(m.scale(m.ReadLatencyNS), obs.Now()-int64(time.Millisecond), 0)
		if got := carrySum(t, m); got != -tickNS {
			t.Fatalf("%s: late spin banked %d ns, want %d", kind.name, got, -tickNS)
		}
		const n = 1000
		elapsed, unspent := run(t, p, k, n)
		if want := n * kind.nominal(m); elapsed+unspent < want || unspent > 2*tickNS {
			t.Errorf("%s: %d calls after a late spin took %d ns (+%d on the ledger); owed %d", kind.name, n, elapsed, unspent, want)
		}
	}
}

// TestChargeCountsFromEntryClock: a charge's spin counts from the clock read
// its door took before the host access. One whose entry lies further back
// than its latency returns at its first clock read, books exactly its
// modelled time and banks at most one tick of credit; one entered now still
// waits its full latency. The bandwidth regulator reads the clock after the
// access instead: an entry older than an idle device's last booking (by an
// access that entered later but reached the regulator first) books no
// queueing. The latencies are 20 µs, so "did not spin" is a bound no clock
// read or pre-emption-free call comes near.
func TestChargeCountsFromEntryClock(t *testing.T) {
	const latency = 20_000
	for _, kind := range []struct {
		name   string
		charge func(p *Pool, a Addr, now int64)
		clock  func(m *CostModel) *atomic.Int64
		want   DeviceNS
	}{
		{"read", func(p *Pool, a Addr, now int64) { p.onRead(a, 8, now) }, func(m *CostModel) *atomic.Int64 { return &m.readClock }, DeviceNS{Read: latency}},
		{"write", func(p *Pool, a Addr, now int64) { p.onWrite(a, 8, now) }, func(m *CostModel) *atomic.Int64 { return &m.writeClock }, DeviceNS{Write: latency}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			m := &CostModel{ReadLatencyNS: latency, WriteLatencyNS: latency, ReadLineNS: 7, WriteLineNS: 26}
			p := costPool(t, m)
			took := int64(1) << 62
			for try := 0; try < 5; try++ { // best of a few: a pre-empted call says nothing
				setCarry(m, 0)
				before := p.Stats()
				t0 := obs.Now()
				kind.charge(p, lineAddr(try), t0-10*latency)
				took = min(took, obs.Now()-t0)
				if got := p.Stats().Sub(before).DeviceNS; got != kind.want {
					t.Errorf("a late-entered charge booked %+v, want %+v", got, kind.want)
				}
				if credit := -carrySum(t, m); credit < 0 || credit > tickNS {
					t.Errorf("a late-entered charge left %d ns of credit, want 0..%d", credit, tickNS)
				}
			}
			if took >= latency/2 {
				t.Errorf("a late-entered charge took %d ns: it spun, though its %d ns latency had passed at entry", took, latency)
			}

			setCarry(m, 0)
			t0 := obs.Now()
			kind.charge(p, lineAddr(8), t0)
			if took, unspent := obs.Now()-t0, carrySum(t, m); took+unspent < latency {
				t.Errorf("a charge entered now took %d ns (+%d on the ledger), want its %d ns latency", took, unspent, latency)
			}

			now := obs.Now()
			kind.clock(m).Store(now)
			before := p.Stats()
			kind.charge(p, lineAddr(9), now-2*latency)
			if got := p.Stats().Sub(before).DeviceNS; got != kind.want {
				t.Errorf("a charge entered before an idle device's last booking booked %+v, want %+v", got, kind.want)
			}
		})
	}
}

// TestScaleDividesEveryCharge: at Scale 4 every kind owes a quarter (integer
// division) and is still never under-charged.
func TestScaleDividesEveryCharge(t *testing.T) {
	full, m := DefaultOptane(), ScaledOptane(4)
	p := costPool(t, m)
	const n = 20_000
	for k, kind := range chargeKinds[:4] {
		if got, want := kind.nominal(m), kind.nominal(full)/4; got != want {
			t.Errorf("%s: scaled nominal %d, want %d", kind.name, got, want)
		}
		elapsed, unspent := run(t, p, k, n)
		if want := n * kind.nominal(m); elapsed+unspent < want {
			t.Errorf("%s: %d scaled calls took %d ns (+%d); owed %d", kind.name, n, elapsed, unspent, want)
		}
	}
	if !raceEnabled {
		// And no more than full price: a Scale the kernel ignored would
		// land at ≈ 300 + overhead per read.
		elapsed, _ := run(t, p, 0, n)
		if per := elapsed / n; per > full.ReadLatencyNS {
			t.Errorf("scaled read costs %d ns per call, full price is %d", per, full.ReadLatencyNS)
		}
	}
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

// TestDeviceTimeBooked: every charge books the scaled nominal price it
// decided on under its own category — from four goroutines at once, so the
// regulator clocks and the ledger are shared under the race detector too —
// windows subtract, pools add, and the registry shows the same figures.
func TestDeviceTimeBooked(t *testing.T) {
	m := ScaledOptane(2)
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
	for k, kind := range chargeKinds {
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
							chargeKinds[k].do(p, lineAddr(w*4096+i&4095))
						}
					}(w)
				}
				wg.Wait()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/call")
			})
		}
	}
}
