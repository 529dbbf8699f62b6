package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dash/internal/pmem"
)

// Directory-cache coherence tests: the DRAM view must mirror the PM
// directory after organic growth, route every operation that meets a stale
// route — one loaded before a publish or doubling wrote the view through —
// to the right segment, rebuild correctly after a crash, stay coherent
// under concurrent growth (run with -race), and, poisoned, be named by
// Verify.

// behindPublish runs op the way an operation meets a stale route in a
// running table: it routed before a publish or doubling wrote the view
// through, and that change may still be in flight, holding dirMu. The test
// plays the change: it takes dirMu, makes the view stale (stale installs the
// routes op is to meet and returns what undoes it) and runs op; a second
// goroutine, once op's claim or route check has failed — its repair now
// waits on dirMu — or op's own split has reached its publish — whose
// sibling persist, the one whole-segment flush a running table issues,
// comes just before it takes dirMu — or op has returned, writes the view
// back and releases dirMu, as the publish would. Reports whether op failed a
// check.
func behindPublish(tbl *Table, stale func() (restore func()), op func()) bool {
	tbl.dirMu.Lock()
	restore := stale()
	misses := tbl.cache.misses.Total()
	var done, publishing atomic.Bool
	tbl.pool.SetFlushHook(func(_ pmem.Addr, n uint64) {
		if n == segmentSize {
			publishing.Store(true)
		}
	})
	defer tbl.pool.SetFlushHook(nil)
	released := make(chan struct{})
	go func() {
		defer close(released)
		for tbl.cache.misses.Total() == misses && !publishing.Load() && !done.Load() {
			runtime.Gosched()
		}
		restore()
		tbl.dirMu.Unlock()
	}()
	op()
	done.Store(true)
	<-released
	return tbl.cache.misses.Total() != misses
}

// staleView returns a stale function for behindPublish that installs view v
// wholesale.
func staleView(tbl *Table, v *dirView) func() func() {
	return func() func() {
		cur := tbl.cache.view.Load()
		tbl.cache.view.Store(v)
		return func() { tbl.cache.view.Store(cur) }
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
	tbl := newTestTable(t, 64<<20, Options{})
	defer tbl.Close()
	acked := make(map[uint64]uint64)
	next := uint64(0)
	growTo(t, tbl, 5, &next, acked)
	requireVerified(t, tbl)
	if m := tbl.cache.misses.Total(); m != 0 {
		t.Errorf("single-threaded growth produced %d cache misses, want 0", m)
	}
	for k, v := range acked {
		if got, ok := tbl.Get(k); !ok || got != v {
			t.Fatalf("Get(%d) = %d,%v want %d,true", k, got, ok, v)
		}
	}
}

// TestDirCacheStaleViewAllOps: every operation meets the view as it was two
// doublings ago — every route in it may name a segment that has split,
// twice — while the change that makes it current is in flight
// (behindPublish). Reads, inserts, updates and deletes must all behave
// correctly, the staleness must be detected (misses counted), and nothing of
// it may be left behind. Correctness must not depend on cache freshness.
func TestDirCacheStaleViewAllOps(t *testing.T) {
	tbl := newTestTable(t, 64<<20, Options{})
	defer tbl.Close()
	acked := make(map[uint64]uint64)
	next := uint64(0)
	growTo(t, tbl, 3, &next, acked)
	stale := staleView(tbl, tbl.cache.view.Load())
	growTo(t, tbl, 5, &next, acked) // ≥ 2 doublings past the snapshot

	met := 0
	count := func(stalled bool) {
		if stalled {
			met++
		}
	}
	for k, v := range acked {
		count(behindPublish(tbl, stale, func() {
			if got, ok := tbl.Get(k); !ok || got != v {
				t.Fatalf("stale-view Get(%d) = %d,%v want %d,true", k, got, ok, v)
			}
		}))
		count(behindPublish(tbl, stale, func() {
			if _, ok := tbl.Get(k + 1<<40); ok {
				t.Fatalf("stale-view Get(%d) found a key never inserted", k+1<<40)
			}
		}))
	}
	if met == 0 {
		t.Error("reads over a two-doublings-stale view met no stale route")
	}
	requireVerified(t, tbl)

	// Writers against the stale view: update/delete of moved keys, plus
	// fresh inserts, must all detect the stale route after locking.
	met = 0
	for k := range acked {
		count(behindPublish(tbl, stale, func() {
			if ok, err := tbl.Update(k, k+100); !ok || err != nil {
				t.Fatalf("stale-view Update(%d) = %v, %v", k, ok, err)
			}
		}))
		acked[k] = k + 100
	}
	for k := uint64(1 << 20); k < 1<<20+64; k++ {
		count(behindPublish(tbl, stale, func() {
			if err := tbl.Insert(k, k); err != nil {
				t.Fatalf("stale-view Insert(%d): %v", k, err)
			}
		}))
		acked[k] = k
	}
	for k := uint64(1 << 20); k < 1<<20+64; k++ {
		count(behindPublish(tbl, stale, func() {
			if !tbl.Delete(k) {
				t.Fatalf("stale-view Delete(%d) reported missing", k)
			}
		}))
		delete(acked, k)
	}
	if met == 0 {
		t.Error("writes over a two-doublings-stale view met no stale route")
	}
	requireVerified(t, tbl)
	for k, v := range acked {
		if got, ok := tbl.Get(k); !ok || got != v {
			t.Fatalf("afterwards Get(%d) = %d,%v want %d,true", k, got, ok, v)
		}
	}
}

// poisonEntry points view entry idx at another segment's descriptor, which,
// owning a different pattern, cannot claim it, and returns what it displaced.
func poisonEntry(t *testing.T, v *dirView, idx uint64) (right *segDesc) {
	t.Helper()
	right = v.entries[idx].Load()
	for i := range v.entries {
		if d := v.entries[i].Load(); d != right {
			v.entries[idx].Store(d)
			return right
		}
	}
	t.Fatal("table has only one segment; cannot poison a route")
	return nil
}

// TestDirCachePoisonedEntry: corrupt a single route (right depth, wrong
// segment) — the shape a half-missed split publish would leave. The view is
// the runtime truth of routing, so nothing at run time repairs it from PM:
// Verify must name the entry, and only it — that it differs from the PM
// directory, that its segment's claim does not cover it, and that the
// segment whose claim does lost it: entirely, when the entry was the
// segment's only one, so that no view entry names it any more, or one of
// its two. An operation meeting the same route while a publish is still
// writing it through must wait for that write, then succeed.
func TestDirCachePoisonedEntry(t *testing.T) {
	for _, span := range []int{1, 2} {
		t.Run(fmt.Sprintf("segment-entries=%d", span), func(t *testing.T) { testPoisonedEntry(t, span) })
	}
}

// testPoisonedEntry poisons the first view entry whose segment has span
// entries, right after the directory doubled to depth 4: the two halves of
// the split that doubled it have one entry each, every other segment two.
func testPoisonedEntry(t *testing.T, span int) {
	tbl := newTestTable(t, 64<<20, Options{})
	defer tbl.Close()
	acked := make(map[uint64]uint64)
	next := uint64(0)
	growTo(t, tbl, 4, &next, acked)

	v := tbl.cache.view.Load()
	entries := make(map[*segDesc]int)
	for i := range v.entries {
		entries[v.entries[i].Load()]++
	}
	idx := uint64(len(v.entries))
	for i := range v.entries {
		if entries[v.entries[i].Load()] == span {
			idx = uint64(i)
			break
		}
	}
	if idx == uint64(len(v.entries)) {
		t.Fatalf("no segment has %d entries in a depth-%d view", span, v.depth)
	}
	key := uint64(0)
	for tbl.parts(key).DirIndex(v.depth) != idx {
		if key++; key == next {
			t.Fatalf("no inserted key routes to entry %d", idx)
		}
	}
	val := acked[key]
	right := poisonEntry(t, v, idx)
	wrong := v.entries[idx].Load()
	err := tbl.Verify()
	if err == nil {
		t.Fatal("Verify passed a poisoned view entry")
	}
	want := []string{
		fmt.Sprintf("view entry %d names segment %#x, PM directory %#x", idx, wrong.seg, right.seg),
		fmt.Sprintf("view entry %d: segment %#x claims", idx, wrong.seg),
		fmt.Sprintf("segment %#x is named by the PM directory, but by no view entry", right.seg),
	}
	if span == 2 {
		want[2] = fmt.Sprintf("segment %#x claims (depth %d, pattern %#x), but only 1 of its 2 entries name it",
			right.seg, v.depth-1, idx>>1)
	}
	lines := strings.Split(err.Error(), "\n")
	if len(lines) != len(want) {
		t.Fatalf("Verify = %v, want the poisoned entry named three times and nothing else", err)
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w) {
			t.Fatalf("Verify line %d = %q, want %q…", i, lines[i], w)
		}
	}
	v.entries[idx].Store(right)

	if !behindPublish(tbl, func() func() {
		poisonEntry(t, v, idx)
		return func() { v.entries[idx].Store(right) }
	}, func() {
		if got, ok := tbl.Get(key); !ok || got != val {
			t.Fatalf("poisoned-route Get(%d) = %d,%v want %d,true", key, got, ok, val)
		}
	}) {
		t.Error("a read over a poisoned route met no stale route")
	}
}

// TestDescriptorCoherence walks one table through everything that writes a
// descriptor — splits, two doublings, a read behind a publish that moves its
// route, a crash that leaks a split's sibling, a crash with Open and first
// touch — and after each requires the whole view to be coherent (Verify: one
// descriptor per segment, shared by its entries, none for the leaked sibling, claims
// that partition the directory, a mirror once recovered) and the mirrors'
// DRAM accounted exactly.
func TestDescriptorCoherence(t *testing.T) {
	disableBackgroundRecovery.Store(true)
	t.Cleanup(func() { disableBackgroundRecovery.Store(false) })
	pool, err := pmem.NewPool(pmem.Options{Size: 4 << 20, TrackCrashes: true})
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
		requireVerified(t, tb)
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

	// A read that routed to another segment's descriptor while the publish
	// writing the right one is in flight: it waits the publish out and reads
	// through the very object the entry held, mirror and all.
	v := tbl.cache.view.Load()
	idx := tbl.parts(0).DirIndex(v.depth)
	var right *segDesc
	behindPublish(tbl, func() func() {
		right = poisonEntry(t, v, idx)
		return func() { v.entries[idx].Store(right) }
	}, func() {
		if got, ok := tbl.Get(0); !ok || got != acked[0] {
			t.Fatalf("poisoned-route Get(0) = %d,%v", got, ok)
		}
	})
	if v.entries[idx].Load() != right {
		t.Fatal("the entry holds a different descriptor than the one the segment had")
	}
	check("after a read behind a publish", tbl)

	// Crash a split before its first entry flip. The sibling is leaked and
	// must be named by nothing.
	tbl, _ = leakSiblingByCrash(t, pool, tbl, &next, acked)
	tbl.RecoverAll()
	check("after crash-leaked sibling", tbl)
	growTo(t, tbl, 6, &next, acked) // retries the same split, and doubles again
	check("after retried split", tbl)

	// Crash, Open: descriptors for exactly the directory's segments, no
	// mirror yet; first touch installs each into its descriptor.
	pool.Crash()
	reopened, err := pmem.OpenSnapshot(pool.Snapshot(), pmem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl2 := openTestTable(t, reopened)
	defer tbl2.Close()
	if b := tbl2.Stats().SegFilterBytes; b != 0 {
		t.Fatalf("Open allocated %d bytes of mirrors", b)
	}
	requireVerified(t, tbl2)
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
}

// TestDirCacheRebuildAfterCrash: after power loss and Open-time recovery the
// view must mirror the recovered directory.
func TestDirCacheRebuildAfterCrash(t *testing.T) {
	pool, err := pmem.NewPool(pmem.Options{Size: 2 << 20, TrackCrashes: true})
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
	tbl2 := openTestTable(t, reopened)
	defer tbl2.Close()
	requireVerified(t, tbl2)
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
	tbl := newTestTable(t, 256<<20, Options{})
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

	requireVerified(t, tbl)
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
