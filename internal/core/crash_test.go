package core

import (
	"fmt"
	"slices"
	"testing"

	"dash/internal/hashfn"
	"dash/internal/pmem"
)

// Single-writer crash matrix. A protocol's crash consistency is an ordering
// of persists, and recovery reconciles whichever prefix of them survived, so
// the flushes an op issues are its complete set of crash points: each row
// below replays a history, then crashes one op at every one of its flushes
// (crashAtEveryFlush) and reopens each image through verifyCrashPoint, the
// crash suites' one oracle (fuzzcrash_test.go). The split rows' ops are
// inserts that carry a split; the record-log rows are in varcrash_test.go.

// crashNow is the sentinel panic a crash hook throws to simulate power loss,
// unwinding out of the in-flight operation.
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

// insertUntilCrash feeds keys to tbl until a flush hook panics with
// crashNow, recording in acked the keys whose Insert was acknowledged
// (returned nil before the crash), and reports whether the crash happened.
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

// crashCase is one row of the single-writer crash matrix: prefix, replayed
// on a fresh crash-tracked table created with opt, then last, the op
// crashed.
type crashCase struct {
	opt    Options
	prefix []fuzzOp
	last   fuzzOp
	arm    func(tbl *Table) // if set, runs on each table between prefix and last
	reopen bool             // if set, each table is closed and opened again after arm, before last
	check  func(tbl *Table) // if set, gets each crash point's reopened table, closed
}

// crashAtEveryFlush crashes c.last at each of its flushes. For k = 1, 2, …
// it replays c.prefix on a fresh table (closed and reopened if c.reopen asks,
// which leaves every segment to c.last's first touch under withLazyGates)
// and runs c.last with the power cut at
// its k-th flush: that flush and every later one panics before it copies a
// line, so nothing the unwinding op flushes reaches media. Each image goes
// through verifyCrashPoint with c.last in flight, then c.check. The first k
// at which c.last completes is the dry run that ends the sweep; its table is
// returned for the row's checks of the completed op, with the number of
// crash points — every flush c.last issues.
func crashAtEveryFlush(t *testing.T, c crashCase) (done *Table, points int) {
	t.Helper()
	hist := append(slices.Clip(c.prefix), c.last)
	for k := 1; ; k++ {
		pool, err := pmem.NewPool(pmem.Options{Size: 1 << 20, TrackCrashes: true})
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := Create(pool, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range c.prefix {
			if err := applyCrashOp(tbl, op); err != nil {
				t.Fatal(err)
			}
		}
		if c.arm != nil {
			c.arm(tbl)
		}
		if c.reopen {
			tbl.Close()
			if tbl, err = Open(pool); err != nil {
				t.Fatal(err)
			}
		}
		flushes := 0
		pool.SetFlushHook(func(pmem.Addr, uint64) {
			if flushes++; flushes >= k {
				panic(crashNow{})
			}
		})
		crashed := crashes(func() {
			if err := applyCrashOp(tbl, c.last); err != nil {
				t.Fatalf("the last op returned: %v", err)
			}
		})
		pool.SetFlushHook(nil)
		if !crashed {
			if flushes != k-1 || k == 1 {
				t.Fatalf("the last op completed with %d flushes after crashing at each of %d", flushes, k-1)
			}
			return tbl, k - 1
		}
		pool.Crash()
		reopened := verifyCrashPoint(t, pool, []crashRun{{hist, len(c.prefix)}}, fmt.Sprintf("crash at flush %d of the last op", k))
		if c.check != nil {
			c.check(reopened)
		}
	}
}

// crashSplitRow runs a split row, in parallel with the others. A dry run on
// a table of InitialDepth 1 inserts the keys next yields (asked once per
// insert, with the dry-run table) up to the first whose insert carries a
// split that want accepts, given the global depth before the insert and the
// local depth of the segment the key routed to, and whether that segment's
// mirror remembered a PM meta word — a drop an earlier split left; growth
// on one goroutine is deterministic, so a fresh table given the inserts
// before it as a prefix splits the same way at the same insert. That insert
// is crashed at each of its flushes — at least 7: the allocator's frontier,
// the marker, the sibling, an entry flip, the header and the retried insert's
// record and header (the sweep of the moved half flushes nothing).
func crashSplitRow(t *testing.T, next func(*Table) uint64, want func(tbl *Table, g0, l0 uint8, remembered bool) bool) {
	t.Helper()
	t.Parallel()
	opt := Options{InitialDepth: 1}
	dry := newTestTable(t, 2<<20, opt)
	defer dry.Close()
	var prefix []fuzzOp
	for {
		k := next(dry)
		op := fuzzOp{kind: 'i', id: k, val: k*3 + 1}
		g0, splits := dry.GlobalDepth(), dry.met.splits.Total()
		mir := dry.cache.route(dry.parts(k)).mir.Load()
		l0, remembered := uint8(mir.depth.Load()), remembersPM(mir)
		if err := applyCrashOp(dry, op); err != nil {
			t.Fatalf("dry run: %v", err)
		}
		if dry.met.splits.Total() == splits || !want(dry, g0, l0, remembered) {
			prefix = append(prefix, op)
			continue
		}
		_, points := crashAtEveryFlush(t, crashCase{opt: opt, prefix: prefix, last: op})
		if points < 7 {
			t.Fatalf("the splitting insert issued %d flushes, want >= 7", points)
		}
		t.Logf("crashed the splitting insert, after %d inserts, at each of its %d flushes", len(prefix), points)
		return
	}
}

// keysWhere is a next function for crashSplitRow: the keys from 0 up whose
// hash parts in accepts, asked with the table they go to. A skewed prefix
// fills one segment, not all, before the split a row wants.
func keysWhere(in func(tbl *Table, p hashfn.Parts) bool) func(*Table) uint64 {
	k := uint64(0)
	return func(tbl *Table) uint64 {
		for !in(tbl, tbl.parts(k)) {
			k++
		}
		k++
		return k - 1
	}
}

// prefix0 is a keysWhere predicate: the keys whose top hash bit is 0, all
// homed in the first of a one-bit directory's two segments.
func prefix0(_ *Table, p hashfn.Parts) bool { return p.DirIndex(1) == 0 }

// doubles and keepsDepth are want functions for crashSplitRow: the split
// doubled the directory, or it did not.
func doubles(tbl *Table, g0, _ uint8, _ bool) bool    { return tbl.GlobalDepth() > g0 }
func keepsDepth(tbl *Table, g0, _ uint8, _ bool) bool { return tbl.GlobalDepth() == g0 }

// remembersPM reports whether any bucket of mir remembers a PM meta word: a
// drop left PM behind the mirror there.
func remembersPM(mir *segMirror) bool {
	for bi := range mir.pmMeta {
		if mir.pmMeta[bi].Load() != 0 {
			return true
		}
	}
	return false
}

// TestCrashBeforePublish crashes the first split of a one-bit directory —
// the split that doubles it — at every flush: before the publish (the
// marker, the sibling's persist, the doubled directory block and the root
// pointer that names it) and after it (the entry flip, the header, the
// sweep, the retried insert). Before the first entry flip recovery rolls
// back through the marker and the sibling leaks; after it, recovery rolls
// forward from the directory.
func TestCrashBeforePublish(t *testing.T) {
	crashSplitRow(t, keysWhere(prefix0), doubles)
}

// crashAtHook builds a crash-tracked table of InitialDepth 1, lets arm set up
// the one crash point it names, and inserts keys until arm's fire cuts the
// power there: fire panics, and so does every flush after it, so nothing the
// unwinding insert flushes reaches media. The reopened image is checked
// against the acknowledged inserts (verifyCrashPoint); the insert in flight
// never reached its record's store, so it is no part of the history.
func crashAtHook(t *testing.T, arm func(tbl *Table, fire func())) {
	t.Helper()
	pool, err := pmem.NewPool(pmem.Options{Size: 1 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	arm(tbl, func() {
		pool.SetFlushHook(func(pmem.Addr, uint64) { panic(crashNow{}) })
		panic(crashNow{})
	})
	acked := make(map[uint64]uint64)
	if !insertUntilCrash(t, tbl, 0, 1<<20, acked) {
		t.Fatal("workload finished without reaching the crash point")
	}
	pool.SetFlushHook(nil)
	pool.Crash()
	ops := make([]fuzzOp, 0, len(acked))
	for k, v := range acked {
		ops = append(ops, fuzzOp{kind: 'i', id: k, val: v})
	}
	verifyCrashPoint(t, pool, []crashRun{{ops, len(ops)}}, t.Name())
}

// TestCrashAfterSplitMarker: power loss right after the first split's
// progress marker is persisted, at the flush that follows it (the sibling's
// persist). Recovery must clear the marker and roll the split back; the old
// segment still owns everything. The marker's flush is the one 8-byte flush
// of a segment's marker word. The image is the one TestCrashBeforePublish
// checks at the second flush of the same split; this test names the point.
func TestCrashAfterSplitMarker(t *testing.T) {
	crashAtHook(t, func(tbl *Table, fire func()) {
		markers := markerWords(tbl)
		marked := false
		tbl.pool.SetFlushHook(func(a pmem.Addr, n uint64) {
			if marked {
				fire()
			}
			marked = n == 8 && markers[a]
		})
	})
}

// TestCrashAfterPublish crashes a split that does not double — its publish
// is the entry flip alone — at every flush; from the flip on, recovery must
// narrow the old segment's stale header and drop the moved records' leftover
// copies. The prefix splits the prefix-0 segment, doubling the directory to
// depth 2, then fills the prefix-1 segment, still at local depth 1.
func TestCrashAfterPublish(t *testing.T) {
	crashSplitRow(t, keysWhere(func(tbl *Table, p hashfn.Parts) bool {
		if tbl.GlobalDepth() < 2 {
			return p.DirIndex(1) == 0
		}
		return p.DirIndex(1) == 1
	}), keepsDepth)
}

// TestCrashMidPublish crashes a multi-entry publish at every flush, the
// half-flipped state — part of the sibling's entries routing to it, part
// still to the old segment — among them. The prefix fills the prefix-0
// segment with keys of top bits 00 until the global depth is 3 (its first
// split moves none of them, so the retried insert splits it again), which
// leaves the prefix-1 segment at local depth 1 covering 4 entries; the prefix
// then fills it, and its split flips 2. The row takes the first split that
// keeps the directory's depth, of a segment at least 2 below it.
func TestCrashMidPublish(t *testing.T) {
	crashSplitRow(t, keysWhere(func(tbl *Table, p hashfn.Parts) bool {
		if tbl.GlobalDepth() < 3 {
			return p.DirIndex(2) == 0
		}
		return p.DirIndex(1) == 1
	}), func(tbl *Table, g0, l0 uint8, _ bool) bool { return g0-l0 >= 2 && tbl.GlobalDepth() == g0 })
}

// TestCrashStaleSlotInsert crashes, at every flush, the first insert after a
// split into a slot the publish left set in PM: the persist of the bucket's
// meta word that clears the slot's bit, then the insert's record and header
// persists. Had the record gone in first, a crash after its flush would
// leave it under the moved record's committed bit and fingerprint.
func TestCrashStaleSlotInsert(t *testing.T) {
	opt := Options{InitialDepth: 1}
	dry := newTestTable(t, 2<<20, opt)
	defer dry.Close()
	prefix := insertThroughSplit(t, dry)
	k, bi, slot, ok := staleSlotKey(dry, rememberingSegment(t, dry), 1<<40)
	if !ok {
		t.Fatal("no insert after the split lands in a stale slot")
	}
	done, points := crashAtEveryFlush(t, crashCase{opt: opt, prefix: prefix, last: fuzzOp{kind: 'i', id: k, val: k*3 + 1}})
	if points != 3 {
		t.Fatalf("the insert into stale slot %d of bucket %d issued %d flushes, want 3: meta word, record, header", slot, bi, points)
	}
	if n := done.filters.stalePersists.Total(); n != 1 {
		t.Fatalf("the completed insert counted %d stale meta persists, want 1", n)
	}
}

// TestCrashFirstTouchAfterCleanReopen: a split, a clean Close and an Open,
// then an insert that is the old segment's first touch — whose route filter
// drops the moved records the split left in PM from the new mirror, storing
// nothing — and lands in one of their slots, crashed at every flush. The
// completed run must verify too: a clean image skips the crash sweeps, not
// the route filter, and a record the filter kept would sit in a segment that
// does not claim it.
func TestCrashFirstTouchAfterCleanReopen(t *testing.T) {
	withLazyGates(t)
	opt := Options{InitialDepth: 1}
	pool, err := pmem.NewPool(pmem.Options{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	dry, err := Create(pool, opt)
	if err != nil {
		t.Fatal(err)
	}
	prefix := insertThroughSplit(t, dry)
	dry.Close()
	dry = openTestTable(t, pool)
	dry.RecoverAll()
	k, _, _, ok := staleSlotKey(dry, rememberingSegment(t, dry), 1<<40)
	if !ok {
		t.Fatal("no insert after the clean reopen lands in a slot the route filter dropped")
	}
	done, points := crashAtEveryFlush(t, crashCase{opt: opt, prefix: prefix, last: fuzzOp{kind: 'i', id: k, val: k*3 + 1}, reopen: true})
	if points != 3 {
		t.Fatalf("the first touch and its insert issued %d flushes, want 3: meta word, record, header", points)
	}
	done.RecoverAll()
	if err := done.Verify(); err != nil {
		t.Fatalf("the completed first touch: %v", err)
	}
	if st := done.Stats(); st.Records != done.Count() {
		t.Fatalf("Stats walks %d records, Count is %d", st.Records, done.Count())
	}
}

// TestCrashSecondSplitRemembered crashes, at every flush, the second split of
// a segment whose buckets still remember the PM meta words its first split
// left: after the first split the prefix inserts only keys of the old
// segment's bucket 0, so the pair (0, 1) and the stash fill and split it
// again while its other buckets have not been written since. Its drop must
// keep the older remembered words, which are what PM holds.
func TestCrashSecondSplitRemembered(t *testing.T) {
	crashSplitRow(t, keysWhere(func(tbl *Table, p hashfn.Parts) bool {
		if tbl.GlobalDepth() < 2 {
			return p.DirIndex(1) == 0
		}
		return p.DirIndex(2) == 0 && p.BucketIndex(bucketBits) == 0
	}), func(_ *Table, _, _ uint8, remembered bool) bool { return remembered })
}
