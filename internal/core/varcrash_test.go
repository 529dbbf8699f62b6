package core

import (
	"fmt"
	"testing"

	"dash/internal/pmem"
)

// Crash injection for the variable-length record path, extending the
// split-protocol crash matrix (split_test.go / crash_test.go) to the
// record log. A blob has no commit word: the slot store that names it is its
// commit, so the windows that matter are
//
//  1. after a blob's bytes persist but before any bucket slot references it
//     (hookVarAppended) — the blob must be reclaimed, the insert rolled back
//     entirely, never resurrected as a record;
//  2. mid-copy-on-write update (hookVarMidUpdate): new blob persisted, old
//     slot word not yet flipped — the OLD value must survive, the new blob
//     must be reclaimed;
//  3. every flush of an insert or a copy-on-write update whose blob reuses
//     the span of a deleted record's blob — the deleted record never comes
//     back, whatever mix of its bytes and the new ones the span holds.
//
// In every case Open must be deterministic: acknowledged records readable
// with their exact bytes, no ghost records, and the orphaned blob parked on
// the log's free list by the recovery sweep rather than leaked. The reopen
// oracle is the crash suites' one (verifyCrashPoint); the orphan is this
// file's own assertion.

// crashVarHook preloads a crash-tracked table with the acknowledged history
// ops, arms one varlog hook, runs crash (which must crash inside it), and
// checks the reopened image against ops — crash is not in it: the old state
// must survive — and that the recovery sweep reclaimed the blob crash left
// behind.
func crashVarHook(t *testing.T, ops []fuzzOp, arm func(tbl *Table, fire func()), crash func(tbl *Table) error) {
	t.Helper()
	pool, err := pmem.NewPool(pmem.Options{Size: 2 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := applyCrashOp(tbl, op); err != nil {
			t.Fatal(err)
		}
	}
	arm(tbl, func() {
		pool.Crash()
		panic(crashNow{})
	})
	if !crashes(func() {
		if err := crash(tbl); err != nil {
			t.Fatalf("the crashing op returned: %v", err)
		}
	}) {
		t.Fatal("the op finished without triggering the crash hook")
	}
	tbl = verifyCrashPoint(t, pool, []crashRun{{ops, len(ops)}}, t.Name())
	if tbl.Metrics().Snapshot().Counters["recovery.lazy.sweep_freed"] == 0 {
		t.Fatal("orphaned blob was not reclaimed onto the free list")
	}
}

// inserts is a history of n inserts of ids 0..n-1, variable-length or u64.
func inserts(n int, varK bool) []fuzzOp {
	ops := make([]fuzzOp, n)
	for i := range ops {
		ops[i] = fuzzOp{kind: 'i', varK: varK, id: uint64(i), val: 3 * uint64(i)}
	}
	return ops
}

// applying is a crash func running op.
func applying(op fuzzOp) func(*Table) error {
	return func(tbl *Table) error { return applyCrashOp(tbl, op) }
}

// TestCrashAfterBlobAppend: power loss between the blob's payload persist
// and the bucket-slot publish that commits it. The blob is durable but
// unreferenced; Open must reclaim it — deterministically, not leak it — and
// the unacknowledged insert vanishes without a trace.
func TestCrashAfterBlobAppend(t *testing.T) {
	crashVarHook(t, inserts(400, true), func(tbl *Table, fire func()) { tbl.hookVarAppended = fire },
		applying(fuzzOp{'i', true, 1 << 30, 7}))
}

// TestCrashMidUpdateCOW: power loss after a copy-on-write update persisted
// its new blob but before the slot word flipped. The old value must survive;
// the new blob is reclaimed.
func TestCrashMidUpdateCOW(t *testing.T) {
	crashVarHook(t, inserts(400, true), func(tbl *Table, fire func()) { tbl.hookVarMidUpdate = fire },
		applying(fuzzOp{'u', true, 7, 999}))
}

// TestCrashMidConvertUpdate: the representation-converting flavor of the
// same window — an inline record updated to a long value crashes after the
// new blob persisted, before the new indirect record was inserted beside the
// old inline one. The key exists exactly once afterwards, with its old value
// (the update was never acknowledged), and the blob is reclaimed.
func TestCrashMidConvertUpdate(t *testing.T) {
	crashVarHook(t, inserts(200, false), func(tbl *Table, fire func()) { tbl.hookVarMidUpdate = fire },
		func(tbl *Table) error {
			_, err := tbl.UpdateB(varKey(5, 8), varVal(5, 60))
			return err
		})
}

// TestCrashReusedSpan is the case a commit word would once have guarded: a
// deleted record's blob span, free-listed once the delete persisted and the
// epoch drained, taken by the blob of the next insert (and, separately, of a
// copy-on-write update). Power fails at every flush of that last op. The span
// is unreferenced on media until the new slot publishes, so the deleted key
// never comes back, the in-flight op is all or nothing, and the sweep
// reclaims the span at every point before the publish.
func TestCrashReusedSpan(t *testing.T) {
	// Keys of ids 1 and 4 are 21 bytes and fuzzVarVal(5) 11, so those blobs
	// share a capacity class; fuzzVarVal(60)'s blob is in another one.
	const gone = 1
	for _, c := range []struct {
		name   string
		prefix []fuzzOp
		last   fuzzOp
	}{
		{"insert", []fuzzOp{{'i', true, gone, 5}, {'d', true, gone, 0}}, fuzzOp{'i', true, 4, 5}},
		{"cow-update", []fuzzOp{{'i', true, 4, 60}, {'i', true, gone, 5}, {'d', true, gone, 0}}, fuzzOp{'u', true, 4, 5}},
	} {
		t.Run(c.name, func(t *testing.T) {
			points := crashAtEveryFlush(t, c.prefix, c.last, func(tbl *Table) {
				if _, ok := tbl.GetB(fuzzVarKey(gone)); ok {
					t.Fatal("the deleted key came back")
				}
			})
			t.Logf("crashed at each of %d flushes", points)
		})
	}
}

// crashAtEveryFlush replays prefix on a fresh crash-tracked table, drains the
// epoch so every blob the prefix retired is on the log's free list, and
// crashes last at its k-th flush, for every k: each image goes through
// verifyCrashPoint with last in flight, must have had a blob reclaimed by the
// sweep, and is handed to check. A run in which last completes ends the
// sweep; it must have put last's blob on a span the prefix freed. Returns
// the number of crash points.
func crashAtEveryFlush(t *testing.T, prefix []fuzzOp, last fuzzOp, check func(*Table)) int {
	t.Helper()
	for k := 1; ; k++ {
		pool, err := pmem.NewPool(pmem.Options{Size: 2 << 20, TrackCrashes: true})
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := Create(pool, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range prefix {
			if err := applyCrashOp(tbl, op); err != nil {
				t.Fatal(err)
			}
		}
		tbl.em.Drain()
		freed := tbl.vlog.FreeSpans()
		flushes := 0
		pool.SetFlushHook(func() {
			if flushes++; flushes == k {
				panic(crashNow{})
			}
		})
		crashed := crashes(func() {
			if err := applyCrashOp(tbl, last); err != nil {
				t.Fatalf("the last op returned: %v", err)
			}
		})
		pool.SetFlushHook(nil)
		if !crashed {
			if blob := blobOf(t, tbl, tbl.probeBytes(fuzzVarKey(last.id))); !freed[blob] {
				t.Fatalf("the last op's blob went to %#x, not to a span the prefix freed (%v)", blob, freed)
			}
			if k == 1 {
				t.Fatal("the last op issued no flush")
			}
			return k - 1
		}
		pool.Crash()
		where := fmt.Sprintf("crash at flush %d of the last op", k)
		tbl = verifyCrashPoint(t, pool, []crashRun{{append(prefix, last), len(prefix)}}, where)
		if tbl.Metrics().Snapshot().Counters["recovery.lazy.sweep_freed"] == 0 {
			t.Fatalf("%s: the sweep reclaimed no blob", where)
		}
		check(tbl)
	}
}
