package core

import (
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
// and its commit word. The blob is uncommitted on media; Open reclaims it
// and the unacknowledged insert vanishes without a trace.
func TestCrashAfterBlobAppend(t *testing.T) {
	crashVarHook(t, inserts(400, true), func(tbl *Table, fire func()) { tbl.hookVarAppended = fire },
		applying(fuzzOp{'i', true, 1 << 30, 7}))
}

// TestCrashAfterBlobCommit: power loss between the blob's commit word and
// the bucket-slot publish. The blob is committed but unreferenced; Open
// must reclaim it — deterministically, not leak it — and must not
// resurrect it as a record.
func TestCrashAfterBlobCommit(t *testing.T) {
	crashVarHook(t, inserts(400, true), func(tbl *Table, fire func()) { tbl.hookVarCommitted = fire },
		applying(fuzzOp{'i', true, 1 << 30, 7}))
}

// TestCrashMidUpdateCOW: power loss after a copy-on-write update committed
// its new blob but before the slot word flipped. The old value must
// survive; the new blob is reclaimed.
func TestCrashMidUpdateCOW(t *testing.T) {
	crashVarHook(t, inserts(400, true), func(tbl *Table, fire func()) { tbl.hookVarMidUpdate = fire },
		applying(fuzzOp{'u', true, 7, 999}))
}

// TestCrashMidConvertUpdate: the representation-converting flavor of the
// same window — an inline record updated to a long value crashes after the
// new blob committed, before the new indirect record was inserted beside the
// old inline one. The key exists exactly once afterwards, with its old value
// (the update was never acknowledged), and the blob is reclaimed.
func TestCrashMidConvertUpdate(t *testing.T) {
	crashVarHook(t, inserts(200, false), func(tbl *Table, fire func()) { tbl.hookVarMidUpdate = fire },
		func(tbl *Table) error {
			_, err := tbl.UpdateB(varKey(5, 8), varVal(5, 60))
			return err
		})
}
