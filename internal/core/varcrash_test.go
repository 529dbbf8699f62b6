package core

import (
	"bytes"
	"testing"

	"dash/internal/pmem"
)

// Crash injection for the variable-length record path, extending the
// split-protocol crash matrix (split_test.go / crash_test.go) to the
// record log's three commit points:
//
//  1. after a blob's bytes persist but before its commit word
//     (hookVarAppended) — the blob must be reclaimed, the insert rolled
//     back entirely;
//  2. after the commit word but before any bucket slot references the blob
//     (hookVarCommitted) — same outcome: a committed-but-unreferenced
//     blob is reclaimed, never resurrected as a record;
//  3. mid-copy-on-write update (hookVarMidUpdate): new blob committed, old
//     slot word not yet flipped — the OLD value must survive, the new
//     blob must be reclaimed.
//
// In every case Open must be deterministic: acknowledged records readable
// with their exact bytes, no ghost records, and the orphaned blob parked
// on the log's free list (observable as LogFreeBytes) rather than leaked.

// varCrashTable builds a crash-tracked table preloaded with variable
// records and returns it with its pool and the acked contents.
func varCrashTable(t *testing.T, n int) (*pmem.Pool, *Table, map[int][]byte) {
	t.Helper()
	pool, err := pmem.NewPool(pmem.Options{Size: 32 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[int][]byte)
	for i := 0; i < n; i++ {
		v := varVal(i, 16+i%100)
		if err := tbl.InsertB(varKey(i, 16+i%100), v); err != nil {
			t.Fatal(err)
		}
		acked[i] = v
	}
	return pool, tbl, acked
}

// verifyVarCrashRecovery reopens the crashed image and checks the
// acceptance contract: every acknowledged record intact byte-for-byte, the
// count exact, the orphan blob reclaimed (free list non-empty), and the
// table fully functional for further variable inserts.
func verifyVarCrashRecovery(t *testing.T, pool *pmem.Pool, acked map[int][]byte, wantOrphanFree bool) {
	t.Helper()
	tbl, err := Open(pool)
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	defer tbl.Close()
	for i, want := range acked {
		v, ok := tbl.GetB(varKey(i, 16+i%100))
		if !ok {
			t.Fatalf("acknowledged record %d lost after crash", i)
		}
		if !bytes.Equal(v, want) {
			t.Fatalf("record %d = %x after crash, want %x", i, v, want)
		}
	}
	if got, want := tbl.Count(), int64(len(acked)); got != want {
		t.Fatalf("recovered count = %d, want %d", got, want)
	}
	requireMirrorsExact(t, tbl) // Count completed recovery
	st := tbl.Stats()
	if got, want := st.LogLiveBlobs, int64(len(acked)); got != want {
		t.Fatalf("recovered live blobs = %d, want %d (ghost or lost blob)", got, want)
	}
	if wantOrphanFree && st.LogFreeBytes == 0 {
		t.Fatal("orphaned blob was not reclaimed onto the free list")
	}
	// The table keeps functioning, reusing reclaimed log space.
	for i := 1 << 20; i < 1<<20+500; i++ {
		if err := tbl.InsertB(varKey(i, 32), varVal(i, 32)); err != nil {
			t.Fatalf("post-recovery InsertB %d: %v", i, err)
		}
	}
	for i := 1 << 20; i < 1<<20+500; i++ {
		if v, ok := tbl.GetB(varKey(i, 32)); !ok || !bytes.Equal(v, varVal(i, 32)) {
			t.Fatalf("post-recovery GetB %d = %v", i, ok)
		}
	}
	requireMirrorsExact(t, tbl)
}

// crashVarHook arms one varlog hook, runs one more InsertB (which must
// crash inside it), and returns the pool for verification.
func crashVarHook(t *testing.T, arm func(tbl *Table, fire func())) (*pmem.Pool, map[int][]byte) {
	t.Helper()
	pool, tbl, acked := varCrashTable(t, 400)
	fire := func() {
		pool.Crash()
		panic(crashNow{})
	}
	arm(tbl, fire)
	crashed := func() (c bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(crashNow); !ok {
					panic(r)
				}
				c = true
			}
		}()
		if err := tbl.InsertB(varKey(1<<30, 48), varVal(7, 48)); err != nil {
			t.Fatalf("crashing InsertB returned: %v", err)
		}
		return false
	}()
	if !crashed {
		t.Fatal("InsertB finished without triggering the crash hook")
	}
	return pool, acked
}

// TestCrashAfterBlobAppend: power loss between the blob's payload persist
// and its commit word. The blob is uncommitted on media; Open reclaims it
// and the unacknowledged insert vanishes without a trace.
func TestCrashAfterBlobAppend(t *testing.T) {
	pool, acked := crashVarHook(t, func(tbl *Table, fire func()) {
		tbl.hookVarAppended = fire
	})
	verifyVarCrashRecovery(t, pool, acked, true)
}

// TestCrashAfterBlobCommit: power loss between the blob's commit word and
// the bucket-slot publish. The blob is committed but unreferenced; Open
// must reclaim it — deterministically, not leak it — and must not
// resurrect it as a record.
func TestCrashAfterBlobCommit(t *testing.T) {
	pool, acked := crashVarHook(t, func(tbl *Table, fire func()) {
		tbl.hookVarCommitted = fire
	})
	verifyVarCrashRecovery(t, pool, acked, true)
}

// TestCrashMidUpdateCOW: power loss after a copy-on-write update committed
// its new blob but before the slot word flipped. The old value must
// survive; the new blob is reclaimed.
func TestCrashMidUpdateCOW(t *testing.T) {
	pool, tbl, acked := varCrashTable(t, 400)
	fire := func() {
		pool.Crash()
		panic(crashNow{})
	}
	tbl.hookVarMidUpdate = fire
	crashed := func() (c bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(crashNow); !ok {
					panic(r)
				}
				c = true
			}
		}()
		if ok, err := tbl.UpdateB(varKey(7, 16+7%100), varVal(999, 77)); !ok || err != nil {
			t.Fatalf("crashing UpdateB returned: %v %v", ok, err)
		}
		return false
	}()
	if !crashed {
		t.Fatal("UpdateB finished without triggering the crash hook")
	}
	// acked still holds the OLD value for key 7 — exactly what recovery
	// must serve.
	verifyVarCrashRecovery(t, pool, acked, true)
}

// TestCrashMidConvertUpdate: the representation-converting flavor of the
// same window — an inline record updated to a long value crashes after the
// new indirect record was inserted but potentially before the old inline
// slot was deleted. Recovery dedupes by canonical key, so the key exists
// exactly once afterwards, with either the old or the new value (the
// update was never acknowledged).
func TestCrashMidConvertUpdate(t *testing.T) {
	pool, err := pmem.NewPool(pmem.Options{Size: 32 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := tbl.Insert(uint64(i), uint64(i)*3); err != nil {
			t.Fatal(err)
		}
	}
	newVal := varVal(5, 60)
	tbl.hookVarMidUpdate = func() {
		pool.Crash()
		panic(crashNow{})
	}
	crashed := func() (c bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(crashNow); !ok {
					panic(r)
				}
				c = true
			}
		}()
		kb := varKey(5, 8)
		if ok, err := tbl.UpdateB(kb, newVal); !ok || err != nil {
			t.Fatalf("crashing UpdateB returned: %v %v", ok, err)
		}
		return false
	}()
	if !crashed {
		t.Fatal("converting UpdateB finished without crashing")
	}
	tbl2, err := Open(pool)
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	defer tbl2.Close()
	if got := tbl2.Count(); got != 200 {
		t.Fatalf("count after conversion crash = %d, want 200 (no ghost duplicate)", got)
	}
	v, ok := tbl2.Get(5)
	if !ok {
		t.Fatal("key 5 lost across conversion crash")
	}
	if v != 15 {
		t.Fatalf("key 5 = %d after crash-before-flip, want old value 15", v)
	}
	for i := 0; i < 200; i++ {
		if i == 5 {
			continue
		}
		if got, ok := tbl2.Get(uint64(i)); !ok || got != uint64(i)*3 {
			t.Fatalf("key %d = %d, %v", i, got, ok)
		}
	}
}
