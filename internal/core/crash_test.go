package core

import (
	"testing"

	"dash/internal/pmem"
)

// crashNow is the sentinel panic a crash hook throws after simulating power
// loss, unwinding out of the in-flight operation.
type crashNow struct{}

// crashes runs f and reports whether a crash hook unwound it; any other
// panic goes on.
func crashes(f func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashNow); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	f()
	return false
}

// insertUntilCrash feeds keys to tbl until a hook fires pool.Crash and
// panics, recording in acked the keys whose Insert was acknowledged (returned
// nil before the crash), and reports whether the crash happened.
func insertUntilCrash(t *testing.T, tbl *Table, start, max uint64, acked map[uint64]uint64) bool {
	t.Helper()
	return crashes(func() {
		for k := start; k < start+max; k++ {
			if err := tbl.Insert(k, k*3+1); err != nil {
				t.Fatalf("insert %d: %v", k, err)
			}
			acked[k] = k*3 + 1
		}
	})
}

// ackedRun is the history of inserting acked's pairs, every insert
// acknowledged: what a hook test hands verifyCrashPoint. The insert the hook
// crashed is no part of it — it never reached its record's store — so the
// check stays exact.
func ackedRun(acked map[uint64]uint64) []crashRun {
	ops := make([]fuzzOp, 0, len(acked))
	for k, v := range acked {
		ops = append(ops, fuzzOp{kind: 'i', id: k, val: v})
	}
	return []crashRun{{ops, len(ops)}}
}

// writesAfterReopen runs writes through a recovered table and checks them as
// a history of their own: inserts, updates, deletes and re-inserts, u64 and
// variable-length (whose blobs may take what the recovery sweep reclaimed),
// over ids no crash history uses, then inserts keys of one home bucket of one
// segment until it splits — their pair, then the stash fill up, so a few
// dozen inserts do it. Every reply, every surviving record and the
// Count delta must be exact: the writer path — route from the rebuilt cache,
// claim check against recovered headers, placement from recovered mirrors, a
// split of a recovered segment — must work on whatever image recovery
// produced.
func writesAfterReopen(t *testing.T, tbl *Table, where string) {
	t.Helper()
	const base = uint64(1) << 41
	var ops []fuzzOp
	for _, ph := range []struct {
		kind         byte
		n, nVar, gen uint64 // u64 ids and variable-length ids from base on, value offset
	}{{'i', 400, 20, 0}, {'u', 300, 10, 9}, {'d', 200, 5, 0}, {'i', 100, 2, 1}} {
		for k := base; k < base+ph.n; k++ {
			ops = append(ops, fuzzOp{ph.kind, false, k, k + ph.gen})
		}
		for k := base; k < base+ph.nVar; k++ {
			ops = append(ops, fuzzOp{ph.kind, true, k, k + ph.gen})
		}
	}
	before := tbl.Count()
	for _, op := range ops {
		if err := applyCrashOp(tbl, op); err != nil {
			t.Fatalf("%s: post-recovery %v", where, err)
		}
	}
	id := base << 1
	first := tbl.parts(id)
	seg, b, splits := tbl.cache.route(first), first.BucketIndex(bucketBits), tbl.met.splits.Total()
	for ; tbl.met.splits.Total() == splits; id++ {
		if p := tbl.parts(id); p.BucketIndex(bucketBits) != b || tbl.cache.route(p) != seg {
			continue
		}
		op := fuzzOp{kind: 'i', id: id, val: id}
		if err := applyCrashOp(tbl, op); err != nil {
			t.Fatalf("%s: post-recovery insert into a full segment: %v", where, err)
		}
		ops = append(ops, op)
	}
	live := verifyCrashRun(t, tbl, crashRun{ops, len(ops)}, where+", writes after recovery")
	if got := tbl.Count(); got != before+int64(live) {
		t.Fatalf("%s: Count = %d after the writes that followed recovery, want %d", where, got, before+int64(live))
	}
}

// crashAtHook builds a crash-tracked table, arms one of the split hooks to
// simulate power loss, inserts keys until it fires, and checks the reopened
// image against the acknowledged inserts (verifyCrashPoint).
func crashAtHook(t *testing.T, arm func(tbl *Table, fire func())) {
	t.Helper()
	pool, err := pmem.NewPool(pmem.Options{Size: 2 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	arm(tbl, func() {
		pool.Crash()
		panic(crashNow{})
	})
	acked := make(map[uint64]uint64)
	if !insertUntilCrash(t, tbl, 0, 1<<20, acked) {
		t.Fatal("workload finished without triggering the crash hook")
	}
	if len(acked) == 0 {
		t.Fatal("crashed before any insert was acknowledged")
	}
	verifyCrashPoint(t, pool, ackedRun(acked), t.Name())
}

// TestCrashBeforePublish: power loss after the new segment is fully
// persisted but before any directory entry points at it. The new segment
// must be rolled back to a leak; the old segment still holds everything.
func TestCrashBeforePublish(t *testing.T) {
	crashAtHook(t, func(tbl *Table, fire func()) { tbl.hookAfterSegPersist = fire })
}

// TestCrashAfterPublish: power loss after the directory entries point at the
// new segment but before the old segment's depth bump and record sweep.
// Recovery must fix the old segment's stale metadata and drop the moved
// records' leftover copies.
func TestCrashAfterPublish(t *testing.T) {
	crashAtHook(t, func(tbl *Table, fire func()) { tbl.hookAfterPublish = fire })
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
	crashed := crashes(func() {
		for k := uint64(0); k < 1<<22; k++ {
			if tbl.parts(k).DirIndex(1) != 1 {
				continue
			}
			if err := tbl.Insert(k, k*3+1); err != nil {
				t.Fatalf("fill insert %d: %v", k, err)
			}
			acked[k] = k*3 + 1
		}
	})
	if !crashed || !fired {
		t.Fatal("workload did not crash mid-publish")
	}
	verifyCrashPoint(t, pool, ackedRun(acked), t.Name())
}
