package core

import (
	"bytes"
	"fmt"
	"testing"

	"dash/internal/pmem"
)

// The background record-log sweep (driveRecovery's final phase) classifies
// every blob that existed at Open as referenced-by-some-segment (live) or
// not (free-listed). On an image with no hole (a blob whose header a crash
// lost, which the sweep bridges with a filler header) it is pure DRAM
// bookkeeping: it writes nothing durable, so a crash mid-sweep leaves exactly
// the image a crash before the sweep leaves, and "resume after crash" is just
// a fresh reopen running the same deterministic classification. This test
// proves both halves: (a) the sweep issues no PM writes (durable image
// identical before and after stepping),
// and (b) two independent reopens of the same image converge on the
// identical free set and freed count — leak-or-reclaim is deterministic —
// with the end-of-sweep invariant (live set == segment-referenced set)
// checked by Verify.

func sweepKey(i int) []byte { return []byte(fmt.Sprintf("sweep-key-%04d", i)) }
func sweepVal(i, gen int) []byte {
	return []byte(fmt.Sprintf("sweep-val-%d-gen%d-%s", i, gen, string(make([]byte, i%70))))
}

// buildSweepImage populates a var-heavy table whose durable image carries
// plenty of dead blobs: updates strand their superseded copies, deletes
// strand the deleted ones (the runtime Free is epoch-deferred DRAM state the
// image never sees). Returns the crash image and the surviving id set.
func buildSweepImage(t *testing.T) ([]byte, map[int]int) {
	t.Helper()
	pool, err := pmem.NewPool(pmem.Options{Size: 2 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1200
	live := map[int]int{} // id -> generation of its current value
	for i := 0; i < n; i++ {
		if err := tbl.InsertB(sweepKey(i), sweepVal(i, 0)); err != nil {
			t.Fatal(err)
		}
		live[i] = 0
	}
	for i := 0; i < n; i += 3 { // dead blobs via copy-on-write updates
		if ok, err := tbl.UpdateB(sweepKey(i), sweepVal(i, 1)); err != nil || !ok {
			t.Fatalf("update %d: %v %v", i, ok, err)
		}
		live[i] = 1
	}
	for i := 0; i < n; i += 5 { // dead blobs via deletes
		if !tbl.DeleteB(sweepKey(i)) {
			t.Fatalf("delete %d: not found", i)
		}
		delete(live, i)
	}
	return pool.Snapshot(), live
}

// recoverFully reopens an image and drives recovery to completion, returning
// the table plus its final free set and sweep-freed counter.
func recoverFully(t *testing.T, img []byte) (*Table, map[pmem.Addr]bool, uint64) {
	t.Helper()
	tbl, _ := reopenImage(t, img)
	tbl.RecoverAll()
	freed := tbl.Metrics().Snapshot().Counters["recovery.lazy.sweep_freed"]
	return tbl, tbl.vlog.FreeSpans(), freed
}

func sameSpans(a, b map[pmem.Addr]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func TestLogSweepCrashResumeDeterministic(t *testing.T) {
	withLazyGates(t)
	img, live := buildSweepImage(t)

	// Reference run: full recovery, end-of-sweep invariant, data intact.
	tblB, freeB, freedB := recoverFully(t, img)
	if freedB == 0 {
		t.Fatal("sweep reclaimed nothing; the image carries no dead blobs and the test is vacuous")
	}
	requireVerified(t, tblB)
	for i, gen := range live {
		v, ok := tblB.GetB(sweepKey(i))
		if !ok || !bytes.Equal(v, sweepVal(i, gen)) {
			t.Fatalf("key %d = %q,%v want gen %d", i, v, ok, gen)
		}
	}
	// No-double-handout, positively: drain the reclaimed spans into fresh
	// records; if any span had been handed out twice, a new blob would
	// overlay a live one and corrupt a surviving value.
	for i := 0; i < 400; i++ {
		if err := tblB.InsertB([]byte(fmt.Sprintf("sweep-new-%04d", i)), sweepVal(i, 9)); err != nil {
			t.Fatal(err)
		}
	}
	for i, gen := range live {
		v, ok := tblB.GetB(sweepKey(i))
		if !ok || !bytes.Equal(v, sweepVal(i, gen)) {
			t.Fatalf("key %d corrupted to %q,%v after free-list reuse (double handout)", i, v, ok)
		}
	}

	// Determinism: an independent reopen of the same image must free the
	// exact same spans. Because the sweep writes nothing durable (proven
	// below), this run IS the crash-mid-sweep reopen: the image after a
	// mid-sweep power loss is byte-identical to img.
	tblC, freeC, freedC := recoverFully(t, img)
	if freedC != freedB || !sameSpans(freeC, freeB) {
		t.Fatalf("sweep not deterministic: freed %d/%d spans %d/%d", freedC, freedB, len(freeC), len(freeB))
	}
	requireVerified(t, tblC)

	// Mid-sweep run: recover the segments, then step the sweep by hand in
	// small batches, checking the durable image never moves; resume the same
	// sweep to completion and require the reference free set.
	tblA, poolA := reopenImage(t, img)
	lr := tblA.lazy.Load()
	if lr == nil {
		t.Fatal("no lazy recovery state on a crash-path open")
	}
	for _, seg := range lr.order {
		tblA.mirror(seg)
	}
	durable0 := poolA.Snapshot()
	sweep := tblA.vlog.SweepStart()
	totalFreed, steps, done := 0, 0, false
	for !done && steps < 4 { // stop mid-sweep
		var freed int
		done, freed = sweep.Step(16, lr.refs)
		totalFreed += freed
		steps++
	}
	if done {
		t.Fatalf("sweep finished in %d tiny steps; image too small to interrupt", steps)
	}
	if durable1 := poolA.Snapshot(); !bytes.Equal(durable0, durable1) {
		t.Fatal("mid-sweep durable image moved: the sweep wrote PM, so crash-mid-sweep is not equivalent to crash-before-sweep")
	}
	for a := range tblA.vlog.FreeSpans() { // partial set must be a prefix of the full one
		if _, ok := freeB[a]; !ok {
			t.Fatalf("mid-sweep freed span %#x the full sweep never frees", a)
		}
	}
	for !done { // resume to completion
		var freed int
		done, freed = sweep.Step(sweepStepBlobs, lr.refs)
		totalFreed += freed
	}
	if uint64(totalFreed) != freedB {
		t.Fatalf("resumed sweep freed %d spans, reference freed %d", totalFreed, freedB)
	}
	if !sameSpans(tblA.vlog.FreeSpans(), freeB) {
		t.Fatal("resumed sweep converged on a different free set")
	}
	// Mark recovery complete the way driveRecovery would, then run the
	// oracle on the hand-driven table too.
	lr.done.Store(true)
	tblA.lazy.Store(nil)
	requireVerified(t, tblA)

	tblA.Close()
	tblB.Close()
	tblC.Close()
}
