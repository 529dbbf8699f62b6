package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dash/internal/pmem"
)

// Crash rows for the variable-length record path, the record log's part of
// the single-writer crash matrix (crash_test.go): each crashes one op at
// every one of its flushes. A blob has no commit word: the slot store that
// names it is its commit, so at every flush before that store the op must
// roll back entirely — an inserted key absent, an updated key at its old
// value — and the blob it appended, durable or not, must be reclaimed by the
// recovery sweep or bridged by it, never leaked and never resurrected as a
// record; from that store on, the op has landed. The reopen oracle is
// verifyCrashPoint, whose Verify requires the log's live set to equal the
// referenced blobs; the rows add the reclaim of the op's own orphan, and
// TestCrashReusedSpan the case of a blob that takes a deleted record's span.

// inserts is a history of n inserts of ids 0..n-1, variable-length or u64.
func inserts(n int, varK bool) []fuzzOp {
	ops := make([]fuzzOp, n)
	for i := range ops {
		ops[i] = fuzzOp{kind: 'i', varK: varK, id: uint64(i), val: 3 * uint64(i)}
	}
	return ops
}

// crashOrphaning runs a record-log row and requires the recovery sweep to
// have reclaimed a blob at one crash point at least: the one after the op's
// blob persisted and before a slot named it. Returns the table on which the
// op completed.
func crashOrphaning(t *testing.T, c crashCase) *Table {
	t.Helper()
	reclaimed := 0
	c.check = func(tbl *Table) {
		if tbl.Metrics().Snapshot().Counters["recovery.lazy.sweep_freed"] > 0 {
			reclaimed++
		}
	}
	done, points := crashAtEveryFlush(t, c)
	if reclaimed == 0 {
		t.Fatalf("no crash point of %d had the sweep reclaim the op's orphaned blob", points)
	}
	t.Logf("crashed at each of %d flushes; the sweep reclaimed a blob at %d", points, reclaimed)
	return done
}

// TestCrashAfterBlobAppend crashes an InsertB at every flush: the blob's
// persist and the slot publish that commits it among them. Between the two
// the blob is durable but unreferenced; the unacknowledged insert must
// vanish without a trace and its blob be reclaimed.
func TestCrashAfterBlobAppend(t *testing.T) {
	crashOrphaning(t, crashCase{prefix: inserts(400, true), last: fuzzOp{'i', true, 1 << 30, 7}})
}

// TestCrashMidUpdateCOW crashes a copy-on-write UpdateB at every flush: up
// to the slot word's flip the old value must survive and the new blob be
// reclaimed.
func TestCrashMidUpdateCOW(t *testing.T) {
	crashOrphaning(t, crashCase{prefix: inserts(400, true), last: fuzzOp{'u', true, 7, 999}})
}

// TestCrashMidConvertUpdate crashes the representation-converting flavor at
// every flush: an inline record updated to a long value ('c') inserts the
// new indirect record beside the old inline one, then deletes the old. The
// key must exist exactly once afterwards (recovery dedupes the pair), with
// its old value or its new one. Until the old record's delete persists,
// recovery keeps the old one, so every crash point reads the old value; the
// new one, whole, is checked on the run that completed.
func TestCrashMidConvertUpdate(t *testing.T) {
	last := fuzzOp{'c', false, 5, 60}
	done := crashOrphaning(t, crashCase{prefix: inserts(200, false), last: last})
	want := fuzzVarVal(last.val)
	if v, _ := done.GetB(binary.LittleEndian.AppendUint64(nil, last.id)); !bytes.Equal(v, want) {
		t.Fatalf("the converted record reads %q, want %q", v, want)
	}
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
		name string
		crashCase
	}{
		{"insert", crashCase{prefix: []fuzzOp{{'i', true, gone, 5}, {'d', true, gone, 0}}, last: fuzzOp{'i', true, 4, 5}}},
		{"cow-update", crashCase{prefix: []fuzzOp{{'i', true, 4, 60}, {'i', true, gone, 5}, {'d', true, gone, 0}}, last: fuzzOp{'u', true, 4, 5}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var freed map[pmem.Addr]bool
			c.arm = func(tbl *Table) {
				tbl.em.Drain() // every blob the prefix retired is on the free list
				freed = tbl.vlog.FreeSpans()
			}
			c.check = func(tbl *Table) {
				if _, ok := tbl.GetB(fuzzVarKey(gone)); ok {
					t.Fatal("the deleted key came back")
				}
				if tbl.Metrics().Snapshot().Counters["recovery.lazy.sweep_freed"] == 0 {
					t.Fatal("the sweep reclaimed no blob")
				}
			}
			done, points := crashAtEveryFlush(t, c.crashCase)
			if blob := blobOf(t, done, done.probeBytes(fuzzVarKey(c.last.id))); !freed[blob] {
				t.Fatalf("the last op's blob went to %#x, not to a span the prefix freed (%v)", blob, freed)
			}
			t.Logf("crashed at each of %d flushes", points)
		})
	}
}
