package core

import (
	"sync"
	"testing"

	"dash/internal/pmem"
)

// Directory-cache coherence tests: the DRAM view must mirror the PM
// directory after organic growth, survive deliberately poisoned (stale)
// routes on every operation, rebuild correctly after a crash, and stay
// coherent under concurrent growth (run with -race).

// verifyCacheCoherent checks the cached view against the PM directory
// entry-for-entry: same directory block, same depth, and per entry a
// descriptor that names the PM directory's segment, carries the local depth
// of that segment's own header, is the one descriptor of that segment (every
// entry of a segment shares it, and the table's registry agrees), has no
// split in flight, and holds the mirror of that segment and no other (header
// claim and every bucket match PM). Only a descriptor still behind its
// first-touch gate may lack a mirror: every operation relies on a gated
// descriptor having one (segDesc.mir).
func verifyCacheCoherent(t *testing.T, tbl *Table) {
	t.Helper()
	p := tbl.pool
	v := tbl.cache.view.Load()
	dir := pmem.Addr(p.QuietLoadU64(rootAddr.Add(rootOffDir)))
	if v.dir != dir {
		t.Fatalf("cache mirrors directory %#x, PM root points at %#x", v.dir, dir)
	}
	g := dirDepth(p, dir)
	if v.depth != g {
		t.Fatalf("cache depth %d, PM directory depth %d", v.depth, g)
	}
	n := uint64(1) << g
	if uint64(len(v.entries)) != n {
		t.Fatalf("cache has %d entries, want %d", len(v.entries), n)
	}
	bySeg := make(map[pmem.Addr]*segDesc)
	for i := uint64(0); i < n; i++ {
		want := dirLoadEntry(p, dir, i)
		d := v.entries[i].Load()
		if d == nil || d.seg != want {
			t.Fatalf("entry %d: cache routes to %+v, PM directory to %#x", i, d, want)
		}
		if wl := segDepth(p, d.seg); uint8(d.depth.Load()) != wl {
			t.Fatalf("entry %d: cached local depth %d, segment header says %d", i, d.depth.Load(), wl)
		}
		if first, ok := bySeg[d.seg]; ok && first != d {
			t.Fatalf("entry %d: segment %#x has two descriptors", i, d.seg)
		}
		if bySeg[d.seg] != nil {
			continue
		}
		bySeg[d.seg] = d
		if tbl.cache.descs[d.seg] != d {
			t.Fatalf("entry %d: descriptor of %#x is not the registered one", i, d.seg)
		}
		if st := p.QuietLoadU64(d.seg.Add(segOffSplit)); st != 0 {
			t.Fatalf("entry %d: quiescent segment %#x still carries split marker %#x", i, d.seg, st)
		}
		if d.mir.Load() == nil {
			if d.rec.Load() == segRecDone {
				t.Fatalf("entry %d: recovered segment %#x has no mirror", i, d.seg)
			}
			continue
		}
		if bad := tbl.mirrorVerifySeg(d); bad != 0 {
			t.Fatalf("entry %d: descriptor of %#x holds a mirror with %d buckets unlike it", i, d.seg, bad)
		}
	}
}

// growTo inserts sequential keys from *next until the table's global depth
// reaches depth, recording acked values.
func growTo(t *testing.T, tbl *Table, depth uint8, next *uint64, acked map[uint64]uint64) {
	t.Helper()
	for tbl.GlobalDepth() < depth {
		k := *next
		*next++
		if err := tbl.Insert(k, k*7+3); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		acked[k] = k*7 + 3
	}
}

// TestDirCacheCoherentAfterGrowth: organic splits and doublings must keep
// the write-through cache exactly in sync with the PM directory.
func TestDirCacheCoherentAfterGrowth(t *testing.T) {
	tbl, err := newTable(64<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	acked := make(map[uint64]uint64)
	next := uint64(0)
	growTo(t, tbl, 5, &next, acked)
	verifyCacheCoherent(t, tbl)
	if m := tbl.cache.misses.Total(); m != 0 {
		t.Errorf("single-threaded growth produced %d cache misses, want 0", m)
	}
	for k, v := range acked {
		if got, ok := tbl.Get(k); !ok || got != v {
			t.Fatalf("Get(%d) = %d,%v want %d,true", k, got, ok, v)
		}
	}
}

// TestDirCacheStaleViewAllOps: restore a view snapshotted two doublings ago
// — every route in it is allowed to be arbitrarily stale — and check that
// reads, inserts, updates and deletes all still behave correctly, that the
// staleness is detected (misses counted), and that the cache heals back to
// coherence. Correctness must not depend on cache freshness.
func TestDirCacheStaleViewAllOps(t *testing.T) {
	tbl, err := newTable(64<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	acked := make(map[uint64]uint64)
	next := uint64(0)
	growTo(t, tbl, 3, &next, acked)
	stale := tbl.cache.view.Load()
	growTo(t, tbl, 5, &next, acked) // ≥ 2 doublings past the snapshot

	tbl.cache.view.Store(stale)
	for k, v := range acked {
		if got, ok := tbl.Get(k); !ok || got != v {
			t.Fatalf("stale-view Get(%d) = %d,%v want %d,true", k, got, ok, v)
		}
	}
	if tbl.cache.misses.Total() == 0 {
		t.Error("reads over a two-doublings-stale view produced no cache miss")
	}
	verifyCacheCoherent(t, tbl) // the first miss must have rebuilt it

	// Writers against the stale view: update/delete of moved keys, plus
	// fresh inserts, must all detect the stale route after locking.
	tbl.cache.view.Store(stale)
	for k := range acked {
		if ok, err := tbl.Update(k, k+100); !ok || err != nil {
			t.Fatalf("stale-view Update(%d) reported missing", k)
		}
		acked[k] = k + 100
	}
	tbl.cache.view.Store(stale)
	for k := uint64(1 << 20); k < 1<<20+64; k++ {
		if err := tbl.Insert(k, k); err != nil {
			t.Fatalf("stale-view Insert(%d): %v", k, err)
		}
		acked[k] = k
	}
	tbl.cache.view.Store(stale)
	for k := uint64(1 << 20); k < 1<<20+64; k++ {
		if !tbl.Delete(k) {
			t.Fatalf("stale-view Delete(%d) reported missing", k)
		}
		delete(acked, k)
	}
	verifyCacheCoherent(t, tbl)
	for k, v := range acked {
		if got, ok := tbl.Get(k); !ok || got != v {
			t.Fatalf("post-heal Get(%d) = %d,%v want %d,true", k, got, ok, v)
		}
	}
}

// TestDirCachePoisonedEntry: corrupt a single route (right depth, wrong
// segment) — the shape a half-missed split publish would leave — and check
// the targeted repair path: the op succeeds and only that entry is fixed up.
func TestDirCachePoisonedEntry(t *testing.T) {
	tbl, err := newTable(64<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	acked := make(map[uint64]uint64)
	next := uint64(0)
	growTo(t, tbl, 4, &next, acked)

	// Pick a preloaded key and point its directory slot at some other
	// segment (which, owning a different pattern, cannot hold the key).
	var key, val uint64
	for k, v := range acked {
		key, val = k, v
		break
	}
	v := tbl.cache.view.Load()
	idx := tbl.parts(key).DirIndex(v.depth)
	right := v.entries[idx].Load()
	var wrong *segDesc
	for i := range v.entries {
		if d := v.entries[i].Load(); d != right {
			v.entries[idx].Store(d)
			wrong = d
			break
		}
	}
	if wrong == nil {
		t.Fatal("table has only one segment; cannot poison a route")
	}

	missesBefore := tbl.cache.misses.Total()
	if got, ok := tbl.Get(key); !ok || got != val {
		t.Fatalf("poisoned-route Get(%d) = %d,%v want %d,true", key, got, ok, val)
	}
	if tbl.cache.misses.Total() == missesBefore {
		t.Error("poisoned route produced no cache miss")
	}
	if d := v.entries[idx].Load(); d != right {
		t.Errorf("repair left entry %d at %#x, want %#x", idx, d.seg, right.seg)
	}
	verifyCacheCoherent(t, tbl)
}

// TestDescriptorCoherence walks one table through everything that writes a
// descriptor — splits, two doublings, a poisoned entry and its repair, a
// crash that leaks a split's sibling, a crash with Open and first touch — and
// after each requires the whole view to be coherent (verifyCacheCoherent:
// segment, depth, one descriptor per segment, its own mirror) with no mirror
// diverged from PM and the mirrors' DRAM accounted exactly.
func TestDescriptorCoherence(t *testing.T) {
	disableBackgroundRecovery.Store(true)
	t.Cleanup(func() { disableBackgroundRecovery.Store(false) })
	pool, err := pmem.NewPool(pmem.Options{Size: 64 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string, tb *Table) {
		t.Helper()
		t.Log(stage)
		verifyCacheCoherent(t, tb)
		if bad := tb.mirrorVerifyAll(); bad != 0 {
			t.Fatalf("%s: %d mirror buckets diverge from PM", stage, bad)
		}
		if st := tb.Stats(); st.SegFilterBytes != uint64(st.Segments)*segMirrorBytes {
			t.Fatalf("%s: %d mirror bytes for %d segments of %d", stage, st.SegFilterBytes, st.Segments, segMirrorBytes)
		}
	}
	acked := make(map[uint64]uint64)
	next := uint64(0)
	growTo(t, tbl, 3, &next, acked)
	check("after splits", tbl)
	growTo(t, tbl, 5, &next, acked)
	check("after two doublings", tbl)

	// Poison one entry with another segment's descriptor; the repair must put
	// back the very object it displaced, mirror and all.
	v := tbl.cache.view.Load()
	idx := tbl.parts(0).DirIndex(v.depth)
	right := v.entries[idx].Load()
	v.entries[idx].Store(v.entries[(idx+uint64(len(v.entries))/2)%uint64(len(v.entries))].Load())
	if v.entries[idx].Load() == right {
		t.Fatal("poison picked the entry's own segment")
	}
	if got, ok := tbl.Get(0); !ok || got != acked[0] {
		t.Fatalf("poisoned-route Get(0) = %d,%v", got, ok)
	}
	if v.entries[idx].Load() != right {
		t.Fatal("repair installed a different descriptor than the one the segment had")
	}
	check("after poison + repair", tbl)

	// Crash a split before its first entry flip. The sibling is leaked and
	// must be named by nothing.
	tbl, leaked := leakSiblingByCrash(t, pool, tbl, &next, acked)
	tbl.RecoverAll()
	notNamed := func(stage string, tb *Table) {
		t.Helper()
		tb.cache.view.Load().eachSegment(func(d *segDesc) {
			if d.seg == leaked {
				t.Fatalf("%s: a view entry names the leaked sibling", stage)
			}
		})
		if tb.cache.descs[leaked] != nil {
			t.Fatalf("%s: the leaked sibling has a descriptor", stage)
		}
	}
	check("after crash-leaked sibling", tbl)
	notNamed("after crash-leaked sibling", tbl)
	growTo(t, tbl, 6, &next, acked) // retries the same split, and doubles again
	check("after retried split", tbl)
	notNamed("after retried split", tbl)

	// Crash, Open: descriptors for exactly the directory's segments, no
	// mirror yet; first touch installs each into its descriptor.
	pool.Crash()
	reopened, err := pmem.OpenSnapshot(pool.Snapshot(), pmem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl2, err := Open(reopened)
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	defer tbl2.Close()
	if b := tbl2.Stats().SegFilterBytes; b != 0 {
		t.Fatalf("Open allocated %d bytes of mirrors", b)
	}
	verifyCacheCoherent(t, tbl2)
	notNamed("after Open", tbl2)
	d0 := tbl2.cache.route(tbl2.parts(0))
	if got, ok := tbl2.Get(0); !ok || got != acked[0] {
		t.Fatalf("post-crash Get(0) = %d,%v", got, ok)
	}
	if d0.mir.Load() == nil {
		t.Fatal("first touch did not install the mirror into the routed descriptor")
	}
	if b := tbl2.Stats().SegFilterBytes; b != segMirrorBytes {
		t.Fatalf("one first touch left %d mirror bytes, want one mirror (%d)", b, segMirrorBytes)
	}
	for k, v := range acked {
		if got, ok := tbl2.Get(k); !ok || got != v {
			t.Fatalf("post-crash Get(%d) = %d,%v want %d,true", k, got, ok, v)
		}
	}
	tbl2.RecoverAll()
	check("after crash + Open + first touch", tbl2)
	notNamed("after crash + Open + first touch", tbl2)
}

// TestDirCacheRebuildAfterCrash: after power loss and Open-time recovery the
// cache must be rebuilt to mirror the recovered directory in one pass.
func TestDirCacheRebuildAfterCrash(t *testing.T) {
	pool, err := pmem.NewPool(pmem.Options{Size: 64 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[uint64]uint64)
	next := uint64(0)
	growTo(t, tbl, 4, &next, acked)

	pool.Crash()
	reopened, err := pmem.OpenSnapshot(pool.Snapshot(), pmem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl2, err := Open(reopened)
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	defer tbl2.Close()
	if r := tbl2.cache.rebuilds.Total(); r != 1 {
		t.Errorf("open performed %d cache rebuilds, want 1", r)
	}
	verifyCacheCoherent(t, tbl2)
	for k, v := range acked {
		if got, ok := tbl2.Get(k); !ok || got != v {
			t.Fatalf("post-crash Get(%d) = %d,%v want %d,true", k, got, ok, v)
		}
	}
	st := tbl2.Stats()
	if st.DirCacheBytes != 8<<st.GlobalDepth {
		t.Errorf("DirCacheBytes = %d, want %d", st.DirCacheBytes, 8<<st.GlobalDepth)
	}
}

// TestDirCacheConcurrentGrowth drives concurrent writers through enough
// inserts to force many splits and several doublings while readers run over
// the already-acknowledged prefix, then checks cache coherence and that no
// operation was misrouted. Meant for -race.
func TestDirCacheConcurrentGrowth(t *testing.T) {
	tbl, err := newTable(256<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()

	const (
		writers   = 4
		perWriter = 6000
		readers   = 2
	)
	var wg sync.WaitGroup
	var done sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) << 32
			for i := uint64(0); i < perWriter; i++ {
				k := base | i
				if err := tbl.Insert(k, k^0xABCD); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		done.Add(1)
		go func(r int) {
			defer done.Done()
			for i := uint64(0); ; i = (i + 1) % perWriter {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(r)<<32 | i
				if v, ok := tbl.Get(k); ok && v != k^0xABCD {
					errc <- errStaleValue
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	done.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	verifyCacheCoherent(t, tbl)
	for w := 0; w < writers; w++ {
		base := uint64(w) << 32
		for i := uint64(0); i < perWriter; i++ {
			k := base | i
			if v, ok := tbl.Get(k); !ok || v != k^0xABCD {
				t.Fatalf("Get(%#x) = %d,%v want %d,true", k, v, ok, k^0xABCD)
			}
		}
	}
	if got, want := tbl.Count(), int64(writers*perWriter); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
}

var errStaleValue = &staleValueError{}

type staleValueError struct{}

func (*staleValueError) Error() string { return "reader observed a wrong value" }
