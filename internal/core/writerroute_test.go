package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dash/internal/pmem"
)

// Writer route validation tests. A writer routes from the DRAM directory
// cache, locks the key's bucket pair and checks the locked segment's own PM
// header (lockOwner): these tests pin what that costs (one header line, no
// PM directory read), that every stale route is caught by the claim check on
// all six write entry points, that a leaked split sibling — whose header
// still claims half a range — is never routed to, and that concurrent
// histories through hundreds of splits end in the oracle's state.

// fpMatches counts the used slots of the key's bucket pair whose fingerprint
// equals the key's: each one costs a probe a charged record-line read.
func fpMatches(tbl *Table, key uint64) int {
	p := tbl.pool
	parts := tbl.parts(key)
	seg := tbl.resolve(parts)
	b := int(parts.BucketIndex(bucketBits))
	n := 0
	for _, bi := range []int{b, (b + 1) % normalBuckets} {
		ba := segBucket(seg, bi)
		m := p.QuietLoadU64(ba.Add(bkOffMeta))
		lo, hi := p.QuietLoadU64(ba.Add(bkOffFPLo)), p.QuietLoadU64(ba.Add(bkOffFPHi))
		for slot := 0; slot < slotsPerBucket; slot++ {
			if metaSlotUsed(m, slot) && fpGet(lo, hi, slot) == parts.FP {
				n++
			}
		}
	}
	return n
}

// readLines returns how many PM lines op read from p (charged reads only).
func readLines(p *pmem.Pool, op func()) uint64 {
	before := p.Stats().ReadLines
	op()
	return p.Stats().ReadLines - before
}

// TestWriterReadCharges: on a quiet table with the cost model off, an
// Insert into a non-full pair with no fingerprint collision reads exactly one
// PM line (the locked segment's header), an in-place Update and a Delete of
// an inline record exactly two (header + the one fingerprint-matched record
// line), and 10k mixed writes read no PM directory line at all.
func TestWriterReadCharges(t *testing.T) {
	tbl := newTestTable(t, 64<<20, Options{InitialDepth: 2})
	defer tbl.Close()
	p := tbl.pool

	checked := 0
	for k := uint64(1); k <= 400; k++ {
		if fpMatches(tbl, k) != 0 {
			// A colliding fingerprint costs a record dereference; not the
			// case this test pins.
			if err := tbl.Insert(k, k); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if n := readLines(p, func() {
			if err := tbl.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Fatalf("Insert(%d) read %d PM lines, want 1 (the segment header)", k, n)
		}
		if n := readLines(p, func() {
			if ok, err := tbl.Update(k, k+1); !ok || err != nil {
				t.Fatalf("Update(%d) = %v, %v", k, ok, err)
			}
		}); n != 2 {
			t.Fatalf("Update(%d) read %d PM lines, want 2 (header + record)", k, n)
		}
		if k%2 == 0 {
			if n := readLines(p, func() {
				if !tbl.Delete(k) {
					t.Fatalf("Delete(%d) reported missing", k)
				}
			}); n != 2 {
				t.Fatalf("Delete(%d) read %d PM lines, want 2 (header + record)", k, n)
			}
		}
		checked++
	}
	if checked < 200 {
		t.Fatalf("only %d collision-free keys checked", checked)
	}

	// Grow past several splits, then make any PM directory read fatal: with
	// the root's directory pointer nulled, resolve, cacheRepair and a split
	// publish would all dereference address 0 and panic. Delete-then-reinsert
	// of one key always finds the slot it just freed, so no split can start.
	const n = 20000
	base := uint64(1) << 32
	for k := base; k < base+n; k++ {
		if err := tbl.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	count, splits, misses := tbl.Count(), tbl.splits.Load(), tbl.cache.misses.Total()
	dirWord := rootAddr.Add(rootOffDir)
	dir := p.QuietLoadU64(dirWord)
	p.QuietStoreU64(dirWord, 0)
	func() {
		defer func() {
			p.QuietStoreU64(dirWord, dir)
			if r := recover(); r != nil {
				t.Fatalf("a write consulted the PM directory: %v", r)
			}
		}()
		rng := rand.New(rand.NewSource(1))
		for writes := 0; writes < 10000; {
			k := base + uint64(rng.Intn(n))
			if rng.Intn(2) == 0 {
				if ok, err := tbl.Update(k, k^0x5A5A); !ok || err != nil {
					t.Fatalf("Update(%d) = %v, %v", k, ok, err)
				}
				writes++
				continue
			}
			if !tbl.Delete(k) {
				t.Fatalf("Delete(%d) reported missing", k)
			}
			if err := tbl.Insert(k, k); err != nil {
				t.Fatalf("Insert(%d): %v", k, err)
			}
			writes += 2
		}
	}()
	if tbl.splits.Load() != splits || tbl.cache.misses.Total() != misses {
		t.Fatalf("mixed writes split (%d→%d) or repaired a route (%d→%d)",
			splits, tbl.splits.Load(), misses, tbl.cache.misses.Total())
	}
	if got := tbl.Count(); got != count {
		t.Fatalf("Count = %d, want %d", got, count)
	}
}

// routeFixture is a table grown through splits and doublings holding both
// inline u64 records and indirect []byte records, with their oracle.
type routeFixture struct {
	tbl  *Table
	u    map[uint64]uint64
	b    map[string][]byte
	next uint64
}

func routeKeyB(i uint64) []byte { return []byte(fmt.Sprintf("route-key-%06d", i)) }
func routeValB(i, gen uint64) []byte {
	return bytes.Repeat([]byte{byte(i), byte(gen)}, 8+int(i%24))
}

// grow inserts one u64 and one []byte record per step until done reports
// true.
func (f *routeFixture) grow(t *testing.T, done func() bool) {
	t.Helper()
	for !done() {
		i := f.next
		f.next++
		if err := f.tbl.Insert(i, i*7+3); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		f.u[i] = i*7 + 3
		if err := f.tbl.InsertB(routeKeyB(i), routeValB(i, 0)); err != nil {
			t.Fatalf("insertB %d: %v", i, err)
		}
		f.b[string(routeKeyB(i))] = routeValB(i, 0)
	}
}

// verify checks the oracle through the read path, the exact Count, cache and
// mirror coherence, and — the point of these tests — that every record
// physically lives in the segment the PM directory routes its key to.
func (f *routeFixture) verify(t *testing.T) {
	t.Helper()
	tbl := f.tbl
	for k, v := range f.u {
		if got, ok := tbl.Get(k); !ok || got != v {
			t.Fatalf("Get(%d) = %d,%v want %d,true", k, got, ok, v)
		}
		pk := tbl.probeU64(k)
		seg := tbl.resolve(pk.parts)
		if _, found := segFindLocked(tbl.pool, tbl.vlog, seg, &pk); !found { // quiescent: no lock to hold
			t.Fatalf("key %d is not in the segment %#x the PM directory routes it to", k, seg)
		}
	}
	for k, v := range f.b {
		if got, ok := tbl.GetB([]byte(k)); !ok || !bytes.Equal(got, v) {
			t.Fatalf("GetB(%q) = %x,%v want %x,true", k, got, ok, v)
		}
		pk := tbl.probeBytes([]byte(k))
		seg := tbl.resolve(pk.parts)
		if _, found := segFindLocked(tbl.pool, tbl.vlog, seg, &pk); !found {
			t.Fatalf("key %q is not in the segment %#x the PM directory routes it to", k, seg)
		}
	}
	if got, want := tbl.Count(), int64(len(f.u)+len(f.b)); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	verifyCacheCoherent(t, tbl)
	if bad := tbl.mirrorVerifyAll(); bad != 0 {
		t.Fatalf("%d mirror words diverge from PM", bad)
	}
}

// writeAllSix drives every write entry point over routes the caller's poison
// function has just made stale (it is re-applied before each batch, since
// the first failed claim starts repairing them): each op must fail the
// claim check, repair, retry and land in the owning segment.
func (f *routeFixture) writeAllSix(t *testing.T, fresh int, poison func()) {
	t.Helper()
	tbl := f.tbl
	batch := func(name string, run func()) {
		t.Helper()
		poison()
		before := tbl.cache.misses.Total()
		run()
		if tbl.cache.misses.Total() == before {
			t.Errorf("%s over stale routes failed no claim check", name)
		}
	}
	batch("Update", func() {
		for k := range f.u {
			if ok, err := tbl.Update(k, k+100); !ok || err != nil {
				t.Fatalf("stale-route Update(%d) = %v, %v", k, ok, err)
			}
			f.u[k] = k + 100
		}
	})
	batch("UpdateB", func() {
		for i := uint64(0); i < f.next; i++ {
			k := routeKeyB(i)
			if ok, err := tbl.UpdateB(k, routeValB(i, 1)); !ok || err != nil {
				t.Fatalf("stale-route UpdateB(%q) = %v, %v", k, ok, err)
			}
			f.b[string(k)] = routeValB(i, 1)
		}
	})
	base := uint64(1) << 40
	batch("Insert", func() {
		for k := base; k < base+uint64(fresh); k++ {
			if err := tbl.Insert(k, k); err != nil {
				t.Fatalf("stale-route Insert(%d): %v", k, err)
			}
			f.u[k] = k
		}
	})
	batch("InsertB", func() {
		for i := base; i < base+uint64(fresh); i++ {
			if err := tbl.InsertB(routeKeyB(i), routeValB(i, 2)); err != nil {
				t.Fatalf("stale-route InsertB(%d): %v", i, err)
			}
			f.b[string(routeKeyB(i))] = routeValB(i, 2)
		}
	})
	batch("Delete", func() {
		for k := range f.u {
			if k%2 == 0 {
				if !tbl.Delete(k) {
					t.Fatalf("stale-route Delete(%d) reported missing", k)
				}
				delete(f.u, k)
			}
		}
	})
	batch("DeleteB", func() {
		for i := uint64(0); i < f.next; i += 2 {
			if !tbl.DeleteB(routeKeyB(i)) {
				t.Fatalf("stale-route DeleteB(%d) reported missing", i)
			}
			delete(f.b, string(routeKeyB(i)))
		}
	})
}

func newRouteFixture(t *testing.T) *routeFixture {
	t.Helper()
	return &routeFixture{tbl: newTestTable(t, 128<<20, Options{}),
		u: make(map[uint64]uint64), b: make(map[string][]byte)}
}

// TestStaleViewAllWriters: a whole view from two doublings ago — every route
// in it may name a segment that has split, twice — under all six writers.
func TestStaleViewAllWriters(t *testing.T) {
	f := newRouteFixture(t)
	defer f.tbl.Close()
	f.grow(t, func() bool { return f.tbl.GlobalDepth() >= 3 })
	stale := f.tbl.cache.view.Load()
	f.grow(t, func() bool { return f.tbl.GlobalDepth() >= 5 })
	f.writeAllSix(t, 64, func() { f.tbl.cache.view.Store(stale) })
	f.verify(t)
}

// TestMovedHalfAllWriters: the shape a missed publish write-through would
// leave — same directory, but the entries of every half moved by the last
// dozen splits still name the old segment, whose header no longer claims
// those keys — under all six writers.
func TestMovedHalfAllWriters(t *testing.T) {
	f := newRouteFixture(t)
	defer f.tbl.Close()
	tbl := f.tbl
	f.grow(t, func() bool { return tbl.GlobalDepth() >= 5 })
	v := tbl.cache.view.Load()
	old := make([]*segDesc, len(v.entries))
	for i := range old {
		old[i] = v.entries[i].Load()
	}
	s0 := tbl.splits.Load()
	f.grow(t, func() bool { return tbl.splits.Load() >= s0+12 })
	moved := 0
	poison := func() {
		if tbl.cache.view.Load() != v {
			t.Fatal("directory doubled; the entry snapshot no longer fits the view")
		}
		moved = 0
		for i := range old {
			// Only entries whose segment changed: the half that stayed put
			// keeps its (correct) route and its refreshed local depth.
			if v.entries[i].Load() != old[i] {
				v.entries[i].Store(old[i])
				moved++
			}
		}
	}
	poison()
	if moved == 0 {
		t.Fatal("no directory entry moved between the snapshot and the writes")
	}
	f.writeAllSix(t, 500, poison)
	f.verify(t)
}

// leakSiblingByCrash inserts keys from *next on (insertUntilCrash: recorded
// in acked) until a split has made its sibling durable, simulates power loss
// there — before the first directory entry flips — and reopens the image.
// That is the one way left to make a segment whose header claims a range
// nothing routes to it: a split that rolls back at run time recycles its
// sibling's block. Returns the reopened table and the leaked segment.
func leakSiblingByCrash(t *testing.T, pool *pmem.Pool, tbl *Table, next *uint64, acked map[uint64]uint64) (*Table, pmem.Addr) {
	t.Helper()
	var leaked pmem.Addr
	tbl.hookAfterSegPersist = func() {
		tbl.cache.view.Load().eachSegment(func(d *segDesc) {
			if st := pool.QuietLoadU64(d.seg.Add(segOffSplit)); st != 0 {
				leaked = pmem.Addr(st &^ splitStateInFlight)
			}
		})
		pool.Crash()
		panic(crashNow{})
	}
	before := len(acked)
	if !insertUntilCrash(t, tbl, *next, 1<<20, acked) {
		t.Fatal("no split reached its sibling's persist")
	}
	*next += uint64(len(acked) - before) // the key in flight at the crash is absent again
	reopened, err := Open(pool)
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	if l, _ := segMeta(pool, leaked); l == 0 {
		t.Fatal("leaked sibling has no claim; the test would prove nothing")
	}
	return reopened, leaked
}

// TestLeakedSiblingNeverRouted crashes a split between its sibling's persist
// and the first entry flip, which leaks a sibling whose header still claims
// the upper half of the old segment's range. The claim check trusts headers,
// so it matters that nothing can ever propose the leaked segment: no
// directory entry and no cache entry names it, and none of its bucket locks
// is ever taken again, whatever runs afterwards.
func TestLeakedSiblingNeverRouted(t *testing.T) {
	pool, err := pmem.NewPool(pmem.Options{Size: 64 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[uint64]uint64)
	var k uint64
	tbl, leaked := leakSiblingByCrash(t, pool, tbl, &k, acked)
	defer tbl.Close()
	versions := func() (vs [totalBuckets]uint64) {
		for bi := range vs {
			vs[bi] = pool.QuietLoadU64(segBucket(leaked, bi).Add(bkOffVersion))
		}
		return vs
	}
	before := versions()

	// Everything the table can do, including the retried split of the same
	// segment and further doublings.
	for end := k + 30000; k < end; k++ {
		if err := tbl.Insert(k, k+1); err != nil {
			t.Fatalf("insert %d after the crash: %v", k, err)
		}
		acked[k] = k + 1
	}
	for key := range acked {
		switch key % 3 {
		case 0:
			if ok, err := tbl.Update(key, key+2); !ok || err != nil {
				t.Fatalf("Update(%d) = %v, %v", key, ok, err)
			}
			acked[key] = key + 2
		case 1:
			if !tbl.Delete(key) {
				t.Fatalf("Delete(%d) reported missing", key)
			}
			delete(acked, key)
		}
	}
	for key, want := range acked {
		if v, ok := tbl.Get(key); !ok || v != want {
			t.Fatalf("Get(%d) = %d,%v want %d,true", key, v, ok, want)
		}
	}
	if got := tbl.Count(); got != int64(len(acked)) {
		t.Fatalf("Count = %d, want %d", got, len(acked))
	}
	if versions() != before {
		t.Fatal("an operation locked a bucket of the leaked sibling")
	}
	view := tbl.cache.view.Load()
	for i := range view.entries {
		if d := view.entries[i].Load(); d.seg == leaked {
			t.Fatalf("cache entry %d routes to the leaked sibling", i)
		}
	}
	if tbl.cache.descs[leaked] != nil {
		t.Fatal("the leaked sibling has a registered descriptor")
	}
	verifyCacheCoherent(t, tbl)
}

// TestWriterHistoryThroughSplits: 4 writers (each with an exact per-key
// oracle over its own keys) and 2 readers over a table that starts with two
// segments and is forced through ≥ 200 splits and ≥ 3 doublings. Every route
// a writer takes is validated by the claim check alone while segments split
// underneath it. Meant for -race.
func TestWriterHistoryThroughSplits(t *testing.T) {
	const (
		writers   = 4
		readers   = 2
		perWriter = 40000
	)
	tbl := newTestTable(t, 256<<20, Options{InitialDepth: 1})
	defer tbl.Close()
	val := func(key, gen uint64) uint64 { return key<<16 | gen&0xFFFF }

	var wg, rwg sync.WaitGroup
	var done atomic.Bool
	oracles := make([]map[uint64]uint64, writers)
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(seed int64) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !done.Load() {
				key := uint64(rng.Intn(writers))<<32 | uint64(rng.Intn(perWriter))
				if v, ok := tbl.Get(key); ok && v>>16 != key {
					t.Errorf("reader saw value %#x under key %#x", v, key)
					return
				}
			}
		}(int64(r))
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			oracle := make(map[uint64]uint64, perWriter)
			oracles[w] = oracle
			base := uint64(w) << 32
			for i := uint64(0); i < perWriter; i++ {
				key := base | i
				if err := tbl.Insert(key, val(key, 0)); err != nil {
					t.Errorf("writer %d: Insert(%#x): %v", w, key, err)
					return
				}
				oracle[key] = val(key, 0)
				// One update or delete of an earlier key of ours per insert.
				prev := base | uint64(rng.Intn(int(i)+1))
				_, live := oracle[prev]
				switch {
				case !live:
					if err := tbl.Insert(prev, val(prev, i)); err != nil {
						t.Errorf("writer %d: re-Insert(%#x): %v", w, prev, err)
						return
					}
					oracle[prev] = val(prev, i)
				case rng.Intn(4) == 0:
					if !tbl.Delete(prev) {
						t.Errorf("writer %d: Delete(%#x) reported missing", w, prev)
						return
					}
					delete(oracle, prev)
				default:
					if ok, err := tbl.Update(prev, val(prev, i)); !ok || err != nil {
						t.Errorf("writer %d: Update(%#x) = %v, %v", w, prev, ok, err)
						return
					}
					oracle[prev] = val(prev, i)
				}
			}
		}(w)
	}
	wg.Wait()
	done.Store(true)
	rwg.Wait()
	if t.Failed() {
		return
	}

	var want int64
	for w, oracle := range oracles {
		want += int64(len(oracle))
		for i := uint64(0); i < perWriter; i++ {
			key := uint64(w)<<32 | i
			v, ok := tbl.Get(key)
			if wv, live := oracle[key]; ok != live || v != wv {
				t.Fatalf("Get(%#x) = %#x,%v want %#x,%v", key, v, ok, wv, live)
			}
		}
	}
	if got := tbl.Count(); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	if s, g := tbl.splits.Load(), tbl.GlobalDepth(); s < 200 || g < 4 {
		t.Fatalf("history saw %d splits and global depth %d, want >= 200 and >= 4", s, g)
	}
	verifyCacheCoherent(t, tbl)
	if bad := tbl.mirrorVerifyAll(); bad != 0 {
		t.Fatalf("%d mirror words diverge from PM", bad)
	}
}
