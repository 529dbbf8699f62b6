package core

import (
	"fmt"
	"testing"

	"dash/internal/pmem"
)

// newTestTable formats a table in a private pool of poolSize bytes and
// checks at the test's end what every operation of the table relied on while
// it ran: DRAM — view, claims, mirrors, frontiers — equals PM (Verify).
func newTestTable(t testing.TB, poolSize uint64, opt Options) *Table {
	t.Helper()
	pool, err := pmem.NewPool(pmem.Options{Size: poolSize})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, opt)
	if err != nil {
		t.Fatal(err)
	}
	verifyAtTeardown(t, tbl)
	return tbl
}

// openTestTable opens the table in pool and, like newTestTable, verifies it
// at the test's end.
func openTestTable(t testing.TB, pool *pmem.Pool) *Table {
	t.Helper()
	tbl, err := Open(pool)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	verifyAtTeardown(t, tbl)
	return tbl
}

// verifyAtTeardown completes the table's recovery and runs requireVerified
// when the test ends: every table a test leaves alive must be one a crash
// could reopen from what it stored.
func verifyAtTeardown(t testing.TB, tbl *Table) {
	t.Cleanup(func() {
		tbl.RecoverAll()
		requireVerified(t, tbl)
	})
}

// requireVerified fails the test if the quiescent table's DRAM state differs
// from its PM image anywhere (Table.Verify).
func requireVerified(t testing.TB, tbl *Table) {
	t.Helper()
	if err := tbl.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

// segDescs returns the descriptors the view holds, by segment: the table's
// only index of its segments.
func segDescs(tbl *Table) map[pmem.Addr]*segDesc {
	descs := make(map[pmem.Addr]*segDesc)
	tbl.cache.view.Load().eachSegment(func(d *segDesc) { descs[d.seg] = d })
	return descs
}

// mirrorOf returns the mirror of a directory-named, recovered segment.
func mirrorOf(tbl *Table, seg pmem.Addr) *segMirror { return segDescs(tbl)[seg].mir.Load() }

func TestBasicOps(t *testing.T) {
	tbl := newTestTable(t, 1<<20, Options{})

	if err := tbl.Insert(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(2, 200); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(1, 111); err != ErrKeyExists {
		t.Fatalf("duplicate insert: got %v, want ErrKeyExists", err)
	}
	if v, ok := tbl.Get(1); !ok || v != 100 {
		t.Fatalf("Get(1) = %d,%v", v, ok)
	}
	if _, ok := tbl.Get(3); ok {
		t.Fatal("Get(3) found a missing key")
	}
	if ok, err := tbl.Update(1, 101); !ok || err != nil {
		t.Fatal("Update(1) reported missing")
	}
	if v, _ := tbl.Get(1); v != 101 {
		t.Fatalf("after update Get(1) = %d", v)
	}
	if ok, _ := tbl.Update(3, 1); ok {
		t.Fatal("Update(3) updated a missing key")
	}
	if !tbl.Delete(2) {
		t.Fatal("Delete(2) reported missing")
	}
	if tbl.Delete(2) {
		t.Fatal("double delete succeeded")
	}
	if _, ok := tbl.Get(2); ok {
		t.Fatal("deleted key still readable")
	}
	if tbl.Count() != 1 {
		t.Fatalf("count = %d, want 1", tbl.Count())
	}
}

// TestFillSplitsAndDoubles drives enough inserts through the table to force
// many segment splits and several directory doublings, then verifies every
// key, exercises deletes across the grown structure, and reinserts.
func TestFillSplitsAndDoubles(t *testing.T) {
	const n = 20000
	tbl := newTestTable(t, 8<<20, Options{})

	for i := uint64(0); i < n; i++ {
		if err := tbl.Insert(i, i*10); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if d := tbl.GlobalDepth(); d < 3 {
		t.Fatalf("global depth = %d after %d inserts, expected several doublings", d, n)
	}
	if tbl.Count() != n {
		t.Fatalf("count = %d, want %d", tbl.Count(), n)
	}
	for i := uint64(0); i < n; i++ {
		v, ok := tbl.Get(i)
		if !ok || v != i*10 {
			t.Fatalf("Get(%d) = %d,%v want %d", i, v, ok, i*10)
		}
	}
	for i := uint64(0); i < n; i += 2 {
		if !tbl.Delete(i) {
			t.Fatalf("Delete(%d) reported missing", i)
		}
	}
	for i := uint64(0); i < n; i++ {
		v, ok := tbl.Get(i)
		if i%2 == 0 && ok {
			t.Fatalf("deleted key %d still present", i)
		}
		if i%2 == 1 && (!ok || v != i*10) {
			t.Fatalf("surviving key %d: %d,%v", i, v, ok)
		}
	}
	if tbl.Count() != n/2 {
		t.Fatalf("count = %d, want %d", tbl.Count(), n/2)
	}
	// Freed slots are reusable.
	for i := uint64(0); i < n; i += 2 {
		if err := tbl.Insert(i, i+1); err != nil {
			t.Fatalf("reinsert %d: %v", i, err)
		}
	}
	if v, _ := tbl.Get(0); v != 1 {
		t.Fatalf("reinserted value = %d, want 1", v)
	}
}

// TestStashOverflowPaths forces keys into one bucket until they spill into
// the stash, then verifies lookup and delete through the overflow metadata.
func TestStashOverflowPaths(t *testing.T) {
	tbl := newTestTable(t, 4<<20, Options{InitialDepth: 1})

	// Collect keys that all map to directory entry 0 and the same target
	// bucket, so they exhaust the pair (b, b+1) and hit the stash.
	var keys []uint64
	var first = tbl.parts(findKeyWithPrefix(t, tbl, 0, 1))
	target := first.BucketIndex(bucketBits)
	for k := uint64(0); len(keys) < 2*slotsPerBucket+6; k++ {
		parts := tbl.parts(k)
		if parts.DirIndex(1) == 0 && parts.BucketIndex(bucketBits) == target {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		if err := tbl.Insert(k, k^0xFF); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	// At least one record must have landed in a stash bucket.
	seg := tbl.cache.route(first).seg
	stashUsed := 0
	for j := 0; j < stashBuckets; j++ {
		stashUsed += slotsPerBucket - bucketFreeSlots(mirrorOf(tbl, seg), normalBuckets+j)
	}
	if stashUsed == 0 {
		t.Fatal("no records in stash despite overfilling one bucket pair")
	}
	for _, k := range keys {
		if v, ok := tbl.Get(k); !ok || v != k^0xFF {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	for _, k := range keys {
		if !tbl.Delete(k) {
			t.Fatalf("Delete(%d) reported missing", k)
		}
		if _, ok := tbl.Get(k); ok {
			t.Fatalf("key %d readable after delete", k)
		}
	}
	if tbl.Count() != 0 {
		t.Fatalf("count = %d after deleting all", tbl.Count())
	}
}

// TestReopenCleanImage: a table snapshot taken after quiescence reopens with
// every record intact (clean-shutdown recovery path).
func TestReopenCleanImage(t *testing.T) {
	pool, err := pmem.NewPool(pmem.Options{Size: 2 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	verifyAtTeardown(t, tbl)
	const n = 5000
	for i := uint64(0); i < n; i++ {
		if err := tbl.Insert(i, i+7); err != nil {
			t.Fatal(err)
		}
	}
	pool2, err := pmem.OpenSnapshot(pool.Snapshot(), pmem.Options{TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl2 := openTestTable(t, pool2)
	if tbl2.Count() != n {
		t.Fatalf("reopened count = %d, want %d", tbl2.Count(), n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tbl2.Get(i); !ok || v != i+7 {
			t.Fatalf("reopened Get(%d) = %d,%v", i, v, ok)
		}
	}
	// And it keeps working.
	for i := uint64(n); i < n+500; i++ {
		if err := tbl2.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	tbl2.Close()
}

func TestOpenRejectsGarbage(t *testing.T) {
	pool, err := pmem.NewPool(pmem.Options{Size: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(pool); err != ErrNotATable {
		t.Fatalf("Open(empty pool) = %v, want ErrNotATable", err)
	}
}

func TestPoolFull(t *testing.T) {
	// A pool big enough to format but too small to keep growing must
	// surface ErrPoolFull rather than corrupt anything.
	tbl := newTestTable(t, 96*1024, Options{InitialDepth: 1})
	var lastErr error
	for i := uint64(0); i < 1<<20; i++ {
		if lastErr = tbl.Insert(i, i); lastErr != nil {
			break
		}
	}
	if lastErr != ErrPoolFull {
		t.Fatalf("expected ErrPoolFull, got %v", lastErr)
	}
	// Everything inserted before the failure is still readable.
	for i := uint64(0); ; i++ {
		if _, ok := tbl.Get(i); !ok {
			break
		}
	}
}

// findKeyWithPrefix brute-forces a key whose hash falls under the given
// directory prefix at the given depth.
func findKeyWithPrefix(t *testing.T, tbl *Table, prefix uint64, depth uint8) uint64 {
	t.Helper()
	for k := uint64(0); k < 1<<22; k++ {
		if tbl.parts(k).DirIndex(depth) == prefix {
			return k
		}
	}
	t.Fatal("no key found for prefix")
	return 0
}

// TestEpochPinningIsolatedPerTable: every table owns its epoch manager, so a
// guard pinned on one table must not stop another table — another shard of a
// service — from reclaiming its retired blobs.
func TestEpochPinningIsolatedPerTable(t *testing.T) {
	tbls := [2]*Table{newTestTable(t, 16<<20, Options{Seed: 11}), newTestTable(t, 16<<20, Options{Seed: 13})}
	defer tbls[0].Close()
	defer tbls[1].Close()

	// Pin table 0: an in-flight reader that never exits.
	guard := tbls[0].em.Enter()

	// Retire work on both tables: indirect records (16-byte keys/values
	// force blob storage) whose deletes defer the blob free to the epoch.
	for ti, tb := range tbls {
		for i := 0; i < 256; i++ {
			k := []byte(fmt.Sprintf("pin-%d-key-%03d", ti, i))
			v := []byte(fmt.Sprintf("pin-%d-val-%03d", ti, i))
			if err := tb.InsertB(k, v); err != nil {
				t.Fatalf("table %d insert %d: %v", ti, i, err)
			}
			if !tb.DeleteB(k) {
				t.Fatalf("table %d delete %d missed", ti, i)
			}
		}
		tb.em.Drain()
	}

	if p := tbls[1].em.Pending(); p != 0 {
		t.Fatalf("unpinned table still has %d pending retires after drain", p)
	}
	if p := tbls[0].em.Pending(); p == 0 {
		t.Fatal("pinned table reclaimed everything despite an active guard")
	}

	// Releasing the guard unblocks table 0's reclamation.
	guard.Exit()
	tbls[0].em.Drain()
	if p := tbls[0].em.Pending(); p != 0 {
		t.Fatalf("pinned table still has %d pending retires after guard exit", p)
	}
}
