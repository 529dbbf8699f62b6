package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dash/internal/hashfn"
)

// The CPU side of the op path (ROADMAP aim 1c): the four u64 operations
// allocate nothing on a warm table, and the read and write paths have
// benchmarks with the cost model off — pure engine time — to profile with
// (go test -bench 'NoModel|Get|Route' -cpu 1,2 -cpuprofile).

// warmU64Table returns a table preloaded with keys [0, n) in a pool with room
// for that many again plus extra more.
func warmU64Table(tb testing.TB, n, extra uint64) *Table {
	tb.Helper()
	tbl := newTestTable(tb, 64<<20+(2*n+extra)*64, Options{})
	for k := uint64(0); k < n; k++ {
		if err := tbl.Insert(k, k); err != nil {
			tb.Fatal(err)
		}
	}
	return tbl
}

// TestU64OpsDoNotAllocate: Insert, Get, Update and Delete of inline records
// are allocation-free. (AllocsPerRun reports the integer mean, so the one
// mirror a split installs every few hundred inserts does not register; a
// per-op allocation would.)
func TestU64OpsDoNotAllocate(t *testing.T) {
	const n = 50000
	tbl := warmU64Table(t, n, 0)
	defer tbl.Close()
	next, i := uint64(n), uint64(0)
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"Insert", func() { _ = tbl.Insert(next, next); next++ }},
		{"Get", func() { tbl.Get(i % n); i += 7919 }},
		{"Update", func() { _, _ = tbl.Update(i%n, i); i += 7919 }},
		{"Delete", func() { tbl.Delete(i % n); i++ }},
	} {
		if a := testing.AllocsPerRun(2000, c.op); a != 0 {
			t.Errorf("%s allocates %.0f objects per op, want 0", c.name, a)
		}
	}
}

func BenchmarkInsertNoModel(b *testing.B) {
	tbl := warmU64Table(b, 0, uint64(b.N))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tbl.Insert(uint64(i), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpdateNoModel(b *testing.B) {
	const n = 200000
	tbl := warmU64Table(b, n, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i) * 7919 % n
		if ok, err := tbl.Update(k, uint64(i)); !ok || err != nil {
			b.Fatal(ok, err)
		}
	}
}

// readBenchKeys is the read benchmarks' table size: ≈ 1 400 segments, so
// 23 MB of mirrors — past L2, like the benchmark of record's read_u64.
const readBenchKeys = 1_000_000

var readBench struct {
	once sync.Once
	tbl  *Table
}

// readBenchTable builds the shared 1M-key table once per process; the read
// benchmarks never mutate it.
func readBenchTable(b *testing.B) *Table {
	readBench.once.Do(func() {
		readBench.tbl = warmU64Table(b, readBenchKeys, 0)
		runtime.GC() // or the build's garbage is collected on the first benchmark's time
	})
	b.ReportAllocs()
	b.ResetTimer()
	return readBench.tbl
}

// benchGets drives Get from b.RunParallel (run with -cpu 1,2: ns/op is wall
// time over total ops, so perfect scaling halves it) over keys base + a
// per-goroutine stride walk of [0, readBenchKeys).
func benchGets(b *testing.B, base uint64, wantFound bool) {
	tbl := readBenchTable(b)
	var lane atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		i := lane.Add(1) * 104729
		for pb.Next() {
			if _, ok := tbl.Get(base + i%readBenchKeys); ok != wantFound {
				b.Errorf("Get(%d) found=%v", base+i%readBenchKeys, ok)
				return
			}
			i += 7919
		}
	})
}

func BenchmarkGetHit(b *testing.B)  { benchGets(b, 0, true) }
func BenchmarkGetMiss(b *testing.B) { benchGets(b, 1<<40, false) }

// cachedBenchKeys is BenchmarkGetCached's table size: 32 segments, whose
// 0.54 MB of mirrors stay in L2, so a Get's CPU cost shows without the DRAM
// misses that dominate BenchmarkGetHit.
const cachedBenchKeys = 20_000

// BenchmarkGetCached is BenchmarkGetHit on a cache-resident table: the same
// stride walk, over every key of a table of cachedBenchKeys.
func BenchmarkGetCached(b *testing.B) {
	tbl := warmU64Table(b, cachedBenchKeys, 0)
	b.ReportAllocs()
	b.ResetTimer()
	var lane atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		i := lane.Add(1) * 104729
		for pb.Next() {
			if _, ok := tbl.Get(i % cachedBenchKeys); !ok {
				b.Errorf("Get(%d) missed", i%cachedBenchKeys)
				return
			}
			i += 7919
		}
	})
}

// BenchmarkMirSegSearch is the probe alone — mirSegSearch on the mirror a
// Get routes to, with the key hashed and routed beforehand — over the shared
// table, whose mirrors exceed L2: keys found in their home bucket, by the
// line of the bucket's block their slot sits on (the header's line: slots
// 0..1; the adjacent line: 2..5; beyond: 6..13), keys found in its
// neighbour, and absent keys, each a stride walk of 2^16 probes (2^15 for
// slots 0..1, which the 1M keys fill less often).
func BenchmarkMirSegSearch(b *testing.B) {
	tbl := readBenchTable(b)
	type probe struct {
		mir *segMirror
		pk  probeKey
	}
	const n = 1 << 16
	cases := []struct {
		name  string
		found bool
		ps    []probe
	}{{"hit-home-slot0-1", true, nil}, {"hit-home-slot2-5", true, nil}, {"hit-home-slot6-13", true, nil},
		{"hit-neighbour", true, nil}, {"miss", false, nil}}
	// which names the case a probe belongs to, by the index of cases.
	which := func(found bool, loc recLoc, b1 int) int {
		switch {
		case !found:
			return 4
		case loc.bucket != b1:
			return 3
		case loc.slot < 2:
			return 0
		case loc.slot < 6:
			return 1
		}
		return 2
	}
	short := len(cases)
	for i := uint64(0); i < readBenchKeys && short > 0; i++ {
		k := i * 7919 % readBenchKeys
		for _, key := range []uint64{k, k + 1<<40} {
			p := probe{pk: tbl.probeU64(key)}
			p.mir = tbl.mirror(tbl.cache.route(p.pk.parts))
			_, loc, found, _ := mirSegSearch(tbl.vlog, p.mir, &p.pk, false)
			b1, _ := homePair(p.pk.parts)
			if c := &cases[which(found, loc, b1)]; len(c.ps) < n {
				if c.ps = append(c.ps, p); len(c.ps) == n {
					short--
				}
			}
		}
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			if len(c.ps) < n/2 {
				b.Fatalf("%d probes, want %d", len(c.ps), n/2)
			}
			walk := len(c.ps) &^ (n/2 - 1) // n or n/2: a power of two
			for i := 0; i < b.N; i++ {
				p := &c.ps[i&(walk-1)]
				if _, _, found, _ := mirSegSearch(tbl.vlog, p.mir, &p.pk, false); found != c.found {
					b.Fatalf("key %x: found = %v", p.pk.kb, found)
				}
			}
		})
	}
}

var routeSink *segMirror

// BenchmarkRoute is the routing prefix of every operation: view load →
// entry → descriptor → mirror pointer, for a pseudo-random hash.
func BenchmarkRoute(b *testing.B) {
	tbl := readBenchTable(b)
	for i := 0; i < b.N; i++ {
		d := tbl.cache.route(hashfn.Split(uint64(i) * 0x9E3779B97F4A7C15))
		routeSink = d.mir.Load()
	}
}
