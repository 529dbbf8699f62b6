package core

import (
	"testing"

	"dash/internal/pmem"
)

// crashNow is the sentinel panic a crash hook throws after simulating power
// loss, unwinding out of the in-flight operation.
type crashNow struct{}

// insertUntilCrash feeds keys to tbl until a hook fires pool.Crash and
// panics, returning the keys whose Insert was acknowledged (returned nil
// before the crash) and whether the crash happened.
func insertUntilCrash(t *testing.T, tbl *Table, start, max uint64, acked map[uint64]uint64) (crashed bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashNow); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	for k := start; k < start+max; k++ {
		if err := tbl.Insert(k, k*3+1); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		acked[k] = k*3 + 1
	}
	return false
}

// mixedWritesAfterReopen runs 1000 writes — inserts, updates, deletes and
// re-inserts over a key range of its own — through a recovered table and
// checks every reply, the surviving values and the Count delta: the writer
// path (route from the rebuilt cache, claim check against recovered segment
// headers) must work on whatever image recovery produced.
func mixedWritesAfterReopen(t *testing.T, tbl *Table) {
	t.Helper()
	const base = uint64(1) << 41
	before := tbl.Count()
	for k := base; k < base+400; k++ {
		if err := tbl.Insert(k, k); err != nil {
			t.Fatalf("post-recovery insert %d: %v", k, err)
		}
	}
	for k := base; k < base+300; k++ {
		if ok, err := tbl.Update(k, k+9); !ok || err != nil {
			t.Fatalf("post-recovery Update(%d) = %v, %v", k, ok, err)
		}
	}
	for k := base; k < base+200; k++ {
		if !tbl.Delete(k) {
			t.Fatalf("post-recovery Delete(%d) reported missing", k)
		}
	}
	for k := base; k < base+100; k++ {
		if err := tbl.Insert(k, k+1); err != nil {
			t.Fatalf("post-recovery re-insert %d: %v", k, err)
		}
	}
	for k := base; k < base+400; k++ {
		want, live := k, true
		switch {
		case k < base+100:
			want = k + 1
		case k < base+200:
			live = false
		case k < base+300:
			want = k + 9
		}
		if v, ok := tbl.Get(k); ok != live || (live && v != want) {
			t.Fatalf("post-recovery Get(%d) = %d,%v want %d,%v", k, v, ok, want, live)
		}
	}
	if got := tbl.Count(); got != before+300 {
		t.Fatalf("post-recovery Count = %d, want %d", got, before+300)
	}
}

// verifyCrashRecovery reopens the crashed pool image and checks the
// acceptance contract: every acknowledged insert is readable with its value,
// and the table accepts (and serves) new inserts.
func verifyCrashRecovery(t *testing.T, pool *pmem.Pool, acked map[uint64]uint64) {
	t.Helper()
	tbl := openTestTable(t, pool)
	for k, want := range acked {
		v, ok := tbl.Get(k)
		if !ok {
			t.Fatalf("acknowledged key %d lost after crash", k)
		}
		if v != want {
			t.Fatalf("key %d = %d after crash, want %d", k, v, want)
		}
	}
	if got, want := tbl.Count(), int64(len(acked)); got != want {
		t.Fatalf("recovered count = %d, want %d", got, want)
	}
	// Count completed recovery: the rebuilt DRAM state — mirrors its sweeps
	// wrote through, view, frontiers — which every write below decides from
	// must equal PM.
	requireVerified(t, tbl)
	// The recovered table must keep functioning, including further splits.
	mixedWritesAfterReopen(t, tbl)
	const more = 3000
	base := uint64(1 << 40)
	for k := base; k < base+more; k++ {
		if err := tbl.Insert(k, k); err != nil {
			t.Fatalf("post-recovery insert %d: %v", k, err)
		}
	}
	for k := base; k < base+more; k++ {
		if v, ok := tbl.Get(k); !ok || v != k {
			t.Fatalf("post-recovery Get(%d) = %d,%v", k, v, ok)
		}
	}
	requireVerified(t, tbl)
	tbl.Close()
}

// crashAtHook builds a crash-tracked table and arms one of the split hooks
// to simulate power loss the nth time it fires.
func crashAtHook(t *testing.T, arm func(tbl *Table, pool *pmem.Pool, fire func())) (*pmem.Pool, map[uint64]uint64) {
	t.Helper()
	pool, err := pmem.NewPool(pmem.Options{Size: 2 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	fire := func() {
		pool.Crash()
		panic(crashNow{})
	}
	arm(tbl, pool, fire)
	acked := make(map[uint64]uint64)
	if !insertUntilCrash(t, tbl, 0, 1<<20, acked) {
		t.Fatal("workload finished without triggering the crash hook")
	}
	if len(acked) == 0 {
		t.Fatal("crashed before any insert was acknowledged")
	}
	return pool, acked
}

// TestCrashBeforePublish: power loss after the new segment is fully
// persisted but before any directory entry points at it. The new segment
// must be rolled back to a leak; the old segment still holds everything.
func TestCrashBeforePublish(t *testing.T) {
	pool, acked := crashAtHook(t, func(tbl *Table, _ *pmem.Pool, fire func()) {
		tbl.hookAfterSegPersist = fire
	})
	verifyCrashRecovery(t, pool, acked)
}

// TestCrashAfterPublish: power loss after the directory entries point at the
// new segment but before the old segment's depth bump and record sweep.
// Recovery must fix the old segment's stale metadata and drop the moved
// records' leftover copies.
func TestCrashAfterPublish(t *testing.T) {
	pool, acked := crashAtHook(t, func(tbl *Table, _ *pmem.Pool, fire func()) {
		tbl.hookAfterPublish = fire
	})
	verifyCrashRecovery(t, pool, acked)
}

// TestCrashMidPublish: power loss after the first flipped directory entry of
// a multi-entry publish range — the half-flipped state where part of the
// directory routes to the new segment and part still routes to the old one.
// Requires a segment whose local depth lags the global depth by ≥ 2, built
// by skewing inserts onto one hash prefix first.
func TestCrashMidPublish(t *testing.T) {
	pool, err := pmem.NewPool(pmem.Options{Size: 2 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[uint64]uint64)

	// Phase 1: grow the directory by splitting only prefix-0 segments until
	// global depth ≥ 3, leaving the prefix-1 segment at local depth 1 with a
	// 4-entry coverage (publish range of 2 entries).
	for k := uint64(0); tbl.GlobalDepth() < 3; k++ {
		if tbl.parts(k).DirIndex(1) != 0 {
			continue
		}
		if err := tbl.Insert(k, k*3+1); err != nil {
			t.Fatalf("skew insert %d: %v", k, err)
		}
		acked[k] = k*3 + 1
	}

	// Phase 2: arm the mid-publish hook and fill the lagging prefix-1
	// segment until it splits with a multi-entry flip.
	fired := false
	tbl.hookMidPublish = func() {
		fired = true
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
		for k := uint64(0); k < 1<<22; k++ {
			if tbl.parts(k).DirIndex(1) != 1 {
				continue
			}
			if err := tbl.Insert(k, k*3+1); err != nil {
				t.Fatalf("fill insert %d: %v", k, err)
			}
			acked[k] = k*3 + 1
		}
		return false
	}()
	if !crashed || !fired {
		t.Fatal("workload did not crash mid-publish")
	}
	verifyCrashRecovery(t, pool, acked)
}
