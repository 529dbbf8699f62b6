package epoch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dash/internal/obs"
	"dash/internal/obs/obstest"
)

// TestRetireNotFreedUnderActiveGuard: an object retired while a guard is
// active must not be reclaimed until that guard exits — the property that
// makes lock-free readers safe.
func TestRetireNotFreedUnderActiveGuard(t *testing.T) {
	m := NewManager()
	var freed atomic.Bool
	g := m.Enter()
	m.Retire(func() { freed.Store(true) })
	for i := 0; i < 10; i++ {
		m.TryAdvance()
	}
	if freed.Load() {
		t.Fatal("object freed while a guard from its epoch was active")
	}
	g.Exit()
	m.Drain()
	if !freed.Load() {
		t.Fatal("object never freed after guard exit and drain")
	}
}

func TestDrainReclaimsEverything(t *testing.T) {
	m := NewManager()
	var freed atomic.Int64
	const n = 100
	for i := 0; i < n; i++ {
		m.Retire(func() { freed.Add(1) })
	}
	m.Drain()
	if freed.Load() != n {
		t.Fatalf("freed %d of %d after drain", freed.Load(), n)
	}
	if m.Pending() != 0 {
		t.Fatalf("pending = %d after drain", m.Pending())
	}
}

// TestGuardsConcurrent hammers Enter/Exit/Retire from many goroutines under
// -race: slot claims and the retire lists must be sound, and every retired
// object must be freed exactly once.
func TestGuardsConcurrent(t *testing.T) {
	m := NewManager()
	m.advanceEvery = 8
	const workers = 16
	const iters = 2000
	var freed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				g := m.Enter()
				if i%4 == 0 {
					m.Retire(func() { freed.Add(1) })
				}
				g.Exit()
			}
		}()
	}
	wg.Wait()
	m.Drain()
	want := int64(workers * iters / 4)
	if freed.Load() != want {
		t.Fatalf("freed %d, want %d", freed.Load(), want)
	}
}

// TestNestedGuards: guards nested on one goroutine start from the same shard
// slot, so each must probe on to a slot of its own, and they may exit in
// either order.
func TestNestedGuards(t *testing.T) {
	m := NewManager()
	for _, innerFirst := range []bool{true, false} {
		g1 := m.Enter()
		g2 := m.Enter()
		if g1.slot == g2.slot {
			t.Fatalf("two live guards share slot %d", g1.slot)
		}
		first, second := g1, g2
		if innerFirst {
			first, second = g2, g1
		}
		first.Exit()
		if m.slots[second.slot].v.Load()&activeBit == 0 {
			t.Fatal("exiting one guard released the other's slot")
		}
		m.Retire(func() {})
		if m.TryAdvance(); m.TryAdvance() != 0 {
			t.Fatal("epoch advanced twice past a live guard")
		}
		second.Exit()
		for i := range m.slots {
			if v := m.slots[i].v.Load(); v != 0 {
				t.Fatalf("slot %d still holds %#x after both guards exited", i, v)
			}
		}
		m.Drain()
	}
}

// TestFullGuardTableYields: with all MaxGuards slots held, a further Enter
// must wait — and yield while it waits, or on one P it burns the core the
// holders need to reach their Exit — and complete once one guard exits.
func TestFullGuardTableYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := NewManager()
	held := make([]Guard, MaxGuards)
	for i := range held {
		held[i] = m.Enter()
	}
	var entered atomic.Bool
	done := make(chan Guard)
	go func() {
		g := m.Enter()
		entered.Store(true)
		done <- g
	}()
	// Each yield hands the only P to the waiter for one pass over the slots.
	// A waiter that spun without yielding would keep it until the runtime's
	// forced preemption, ~10 ms per round.
	const rounds = 200
	start := time.Now()
	for i := 0; i < rounds; i++ {
		runtime.Gosched()
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("%d yields against a waiting Enter took %v: the waiter is not yielding", rounds, d)
	}
	if entered.Load() {
		t.Fatalf("Enter returned with all %d slots held", MaxGuards)
	}
	held[MaxGuards/2].Exit()
	g := <-done
	if g.slot != held[MaxGuards/2].slot {
		t.Errorf("waiter took slot %d, the freed one is %d", g.slot, held[MaxGuards/2].slot)
	}
	g.Exit()
	for i, h := range held {
		if i != MaxGuards/2 {
			h.Exit()
		}
	}
}

// TestGuardProtectsAcrossAdvances is the property the table's lock-free
// readers rest on: an object reachable when a guard entered is not freed
// while that guard is active, however Retire and TryAdvance interleave with
// Enter and Exit. Writers swap a shared node and retire the old one; readers
// hold whatever node they loaded under their guard and watch for its free.
func TestGuardProtectsAcrossAdvances(t *testing.T) {
	type node struct{ freed atomic.Bool }
	m := NewManager()
	m.advanceEvery = 4
	var cur atomic.Pointer[node]
	cur.Store(new(node))
	var retired, freed atomic.Int64
	const readers, writers, iters = 6, 2, 3000
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				g := m.Enter()
				n := cur.Load()
				for j := 0; j < 8; j++ {
					if n.freed.Load() {
						t.Error("node freed under the guard that loaded it")
						g.Exit()
						return
					}
					if j == 4 {
						runtime.Gosched()
					}
				}
				g.Exit()
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				old := cur.Swap(new(node))
				retired.Add(1)
				m.Retire(func() { old.freed.Store(true); freed.Add(1) })
				m.TryAdvance()
			}
		}()
	}
	wg.Wait()
	m.Drain()
	if freed.Load() != retired.Load() {
		t.Fatalf("freed %d of %d retired nodes", freed.Load(), retired.Load())
	}
}

// enterExitNS returns the aggregate wall ns per Enter+Exit pair with procs
// goroutines on procs Ps, best of five.
func enterExitNS(procs int) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	const pairs = 400_000
	m := NewManager()
	best := 0.0
	for round := 0; round < 5; round++ {
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < procs; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < pairs; i++ {
					m.Enter().Exit()
				}
			}()
		}
		wg.Wait()
		ns := float64(time.Since(start).Nanoseconds()) / float64(procs*pairs)
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// TestEnterExitScales is the gate on reader scalability: a guard must write
// no line another core's guard writes, so two cores get through Enter+Exit
// pairs at least as fast as one. Stated as a ratio so it holds on any box;
// the free-list manager this replaced measured ≈ 3.3x here, this one ≈ 0.5x.
func TestEnterExitScales(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-time comparison; the race detector serializes atomics")
	}
	if runtime.GOMAXPROCS(0) < 2 || runtime.NumCPU() < 2 {
		t.Skip("needs two CPUs")
	}
	one, two := enterExitNS(1), enterExitNS(2)
	t.Logf("Enter+Exit: %.1f ns/pair on 1 proc, %.1f ns/pair aggregate on 2 (%.2fx)", one, two, two/one)
	if two > 1.5*one {
		t.Errorf("2-proc aggregate %.1f ns/pair > 1.5 x 1-proc %.1f: guards contend on a shared line", two, one)
	}
}

func BenchmarkEnterExit(b *testing.B) {
	m := NewManager()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Enter().Exit()
		}
	})
}

// TestEnterOneRegionPerGoroutine: a goroutine's guards, entered at 200 call
// depths and again after its stack has moved, all start in one guard
// region, its obs.GoShard's: with no other guard active, each takes the
// region's first slot.
func TestEnterOneRegionPerGoroutine(t *testing.T) {
	const depths = 200
	m := NewManager()
	slots := map[int]int{}
	moved := obstest.AtDepths(depths, func(int) {
		g := m.Enter()
		slots[g.slot]++
		g.Exit()
	})
	if !moved {
		t.Fatal("the large-frame recursion did not move the goroutine's stack")
	}
	if len(slots) != 1 {
		t.Errorf("one goroutine's guards started at %d slots (slot: guards) over %d call depths and a stack move: %v", len(slots), depths, slots)
	}
	for s := range slots {
		if s%(MaxGuards/obs.Shards) != 0 {
			t.Errorf("a guard with no other active took slot %d, not its region's first", s)
		}
	}
}
