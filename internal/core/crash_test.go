package core

import (
	"fmt"
	"math/bits"
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
// local depth of the segment the key routed to, and whether that segment
// held stale slots — records an earlier split dropped from its mirror and
// left in PM (holdsStale); growth on one goroutine is deterministic, so a
// fresh table given the inserts before it as a prefix splits the same way at
// the same insert. That insert is crashed at each of its flushes — at least
// 5: the allocator's frontier, the sibling, an entry flip, the header and the
// retried insert's record line (the sweep of the moved half flushes nothing).
func crashSplitRow(t *testing.T, next func(*Table) uint64, want func(tbl *Table, g0, l0 uint8, stale bool) bool) {
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
		d := dry.cache.route(dry.parts(k))
		l0, stale := uint8(d.mir.Load().depth.Load()), holdsStale(dry, d)
		if err := applyCrashOp(dry, op); err != nil {
			t.Fatalf("dry run: %v", err)
		}
		if dry.met.splits.Total() == splits || !want(dry, g0, l0, stale) {
			prefix = append(prefix, op)
			continue
		}
		_, points := crashAtEveryFlush(t, crashCase{opt: opt, prefix: prefix, last: op})
		if points < 5 {
			t.Fatalf("the splitting insert issued %d flushes, want >= 5", points)
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

// TestCrashBeforePublish crashes the first split of a one-bit directory —
// the split that doubles it — at every flush: before the publish (the
// allocator's frontier, the sibling's persist, the doubled directory block
// and the root pointer that names it) and after it (the entry flip, the
// header, the retried insert). Before the first entry flip no entry names
// the sibling: the old segment keeps everything and the sibling leaks.
// After it, recovery rolls forward from the directory.
func TestCrashBeforePublish(t *testing.T) {
	crashSplitRow(t, keysWhere(prefix0), doubles)
}

// crashAtHook builds a crash-tracked table of InitialDepth 1, lets arm set up
// the one crash point it names, and inserts keys until arm's fire cuts the
// power there: fire panics, and so does every flush after it, so nothing the
// unwinding insert flushes reaches media. If edit is not nil, it may then
// change the crashed image, given the table that crashed — the keys from 0
// up to len(acked) were acknowledged, and len(acked) was in flight. The
// reopened image is checked against the acknowledged inserts
// (verifyCrashPoint); the insert in flight never reached its record's store,
// so it is no part of the history.
func crashAtHook(t *testing.T, arm func(tbl *Table, fire func()), edit func(tbl *Table, acked map[uint64]uint64)) {
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
	if edit != nil {
		edit(tbl, acked)
	}
	ops := make([]fuzzOp, 0, len(acked))
	for k, v := range acked {
		ops = append(ops, fuzzOp{kind: 'i', id: k, val: v})
	}
	verifyCrashPoint(t, pool, []crashRun{{ops, len(ops)}}, t.Name())
}

// atSiblingPersist is an arm function for crashAtHook: the crash point is
// the first split's sibling persist, the one flush of a whole segment, whose
// address goes to *sibling.
func atSiblingPersist(sibling *pmem.Addr) func(*Table, func()) {
	return func(tbl *Table, fire func()) {
		tbl.pool.SetFlushHook(func(a pmem.Addr, n uint64) {
			if n == segmentSize {
				*sibling = a
				fire()
			}
		})
	}
}

// TestCrashAtSplitSiblingPersist: power loss at the first split's sibling
// persist. Nothing durable names the sibling yet, so recovery must leave the
// old segment owning everything and the sibling's block leaked. The image is
// the one TestCrashBeforePublish checks at the same flush of the same split;
// this test names the point.
func TestCrashAtSplitSiblingPersist(t *testing.T) {
	var sibling pmem.Addr
	crashAtHook(t, atSiblingPersist(&sibling), nil)
}

// TestOpenIgnoresOldSplitMarker: earlier writers of format 7 persisted a
// split-progress marker — the sibling's address with the low bit set — into
// the splitting segment's header word 16 before the sibling's persist, and
// cleared it with the header bump. Nothing reads that word any more, which
// is why images written so are still format 7: the crash image of
// TestCrashAtSplitSiblingPersist, with the marker stored as such a writer
// left it, must reopen to a table that verifies and holds every acknowledged
// key.
func TestOpenIgnoresOldSplitMarker(t *testing.T) {
	var sibling pmem.Addr
	crashAtHook(t, atSiblingPersist(&sibling), func(tbl *Table, acked map[uint64]uint64) {
		// The in-flight insert's key routes to the splitting segment: the
		// publish that would route part of it elsewhere never ran.
		old := tbl.cache.route(tbl.parts(uint64(len(acked))))
		tbl.pool.QuietStoreU64(old.seg.Add(16), uint64(sibling)|1)
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
// split into a stale slot — one whose moved record the publish dropped from
// the mirror and left in PM: its one flush, of the record's line. A crash
// there leaves the moved record, which recovery's route filter drops again;
// the completed insert overwrote it in PM. The torn lines a crash of real
// hardware could leave in between are TestTornInsertImages'.
func TestCrashStaleSlotInsert(t *testing.T) {
	opt := Options{InitialDepth: 1}
	dry := newTestTable(t, 2<<20, opt)
	defer dry.Close()
	prefix := insertThroughSplit(t, dry)
	k, bi, slot, ok := staleSlotKey(dry, staleSegment(t, dry), 1<<40)
	if !ok {
		t.Fatal("no insert after the split lands in a stale slot")
	}
	done, points := crashAtEveryFlush(t, crashCase{opt: opt, prefix: prefix, last: fuzzOp{kind: 'i', id: k, val: k*3 + 1}})
	if points != 1 {
		t.Fatalf("the insert into stale slot %d of bucket %d issued %d flushes, want 1: the record's line", slot, bi, points)
	}
	d := done.cache.route(done.parts(k))
	if got := done.pool.QuietLoadU64(slotAddr(d.seg, bi, slot)); got != recInlineWord(k) {
		t.Fatalf("after the completed insert, stale slot %d of bucket %d holds word 0 %#x, want key %d's", slot, bi, got, k)
	}
}

// TestTornStaleSlotInsert builds by hand, on a post-split image, the torn
// lines a crashed insert could leave on hardware that persists one line's
// stores in program order but may write the line back between two of them —
// states the simulator, which copies whole lines at a flush, never makes —
// and reopens each. A new value word under an empty slot's zero word 0 (or
// under the zero the insert stores first) must reopen as an empty slot. A
// new value word under a stale slot's old word 0 — the torn state the
// insert's zero store rules out, here by hand all the same — must be
// dropped by the route filter, which routes it by its inline key: the moved
// key is then found exactly once, in the sibling, with its own value. Both
// images must pass Verify and verifyCrashPoint's whole contract.
func TestTornStaleSlotInsert(t *testing.T) {
	for _, row := range []struct {
		name  string
		stale bool
	}{{"value under an empty slot", false}, {"value under a stale slot", true}} {
		stale := row.stale
		t.Run(row.name, func(t *testing.T) {
			pool, err := pmem.NewPool(pmem.Options{Size: 1 << 20, TrackCrashes: true})
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := Create(pool, Options{InitialDepth: 1})
			if err != nil {
				t.Fatal(err)
			}
			ops := insertThroughSplit(t, tbl)
			old := staleSegment(t, tbl)
			// An empty slot has a zero word 0 (a live one never does).
			bi, slot := -1, -1
			for b := 0; b < totalBuckets && slot < 0; b++ {
				for s := 0; s < slotsPerBucket; s++ {
					empty := pool.QuietLoadU64(slotAddr(old.seg, b, s)) == 0
					if stale && staleSlot(tbl, old, b, s) || !stale && empty {
						bi, slot = b, s
						break
					}
				}
			}
			if slot < 0 {
				t.Fatalf("segment %#x has no slot to tear", old.seg)
			}
			ra := slotAddr(old.seg, bi, slot)
			w0 := pool.QuietLoadU64(ra)
			pool.QuietStoreU64(ra.Add(8), 0xF00DF00DF00DF00D)
			pool.Persist(ra, pmem.RecordSize)
			pool.Crash()

			img, err := pmem.OpenSnapshot(pool.Snapshot(), pmem.Options{})
			if err != nil {
				t.Fatal(err)
			}
			re, err := Open(img)
			if err != nil {
				t.Fatal(err)
			}
			re.RecoverAll()
			if m := segDescs(re)[old.seg].mir.Load().word(bi, mirBkMeta).Load(); metaSlotUsed(m, slot) {
				t.Fatalf("the torn slot %d of bucket %d reopened live", slot, bi)
			}
			if stale {
				k := recWordKey(w0)
				pk := re.probeU64(k)
				var in []*segDesc
				for _, d := range segDescs(re) {
					if kv, _, ok, _ := mirSegSearch(re.vlog, d.mir.Load(), &pk, true); ok {
						in = append(in, d)
						if kv.Value != k*3+1 {
							t.Fatalf("moved key %d holds %#x in segment %#x, want its own value %d", k, kv.Value, d.seg, k*3+1)
						}
					}
				}
				if len(in) != 1 || in[0] == segDescs(re)[old.seg] || in[0] != re.cache.route(pk.parts) {
					t.Fatalf("moved key %d is found in %d segments, want once, in its sibling", k, len(in))
				}
			}
			if err := re.Verify(); err != nil {
				t.Fatal(err)
			}
			verifyCrashPoint(t, pool, []crashRun{{ops, len(ops)}}, row.name)
		})
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
	k, _, _, ok := staleSlotKey(dry, staleSegment(t, dry), 1<<40)
	if !ok {
		t.Fatal("no insert after the clean reopen lands in a slot the route filter dropped")
	}
	done, points := crashAtEveryFlush(t, crashCase{opt: opt, prefix: prefix, last: fuzzOp{kind: 'i', id: k, val: k*3 + 1}, reopen: true})
	if points != 1 {
		t.Fatalf("the first touch and its insert issued %d flushes, want 1: the record's line", points)
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
// a segment whose PM buckets still hold the stale records its first split
// left: after the first split the prefix inserts only keys of the old
// segment's bucket 0, so the pair (0, 1) and the stash fill and split it
// again while its other buckets have not been written since. The second
// split's copy reads the mirror, so it must not carry the stale records to
// its sibling, and every image must still drop them by route.
func TestCrashSecondSplitRemembered(t *testing.T) {
	crashSplitRow(t, keysWhere(func(tbl *Table, p hashfn.Parts) bool {
		if tbl.GlobalDepth() < 2 {
			return p.DirIndex(1) == 0
		}
		return p.DirIndex(2) == 0 && p.BucketIndex(bucketBits) == 0
	}), func(_ *Table, _, _ uint8, stale bool) bool { return stale })
}

// homedIn5 is a keysWhere predicate: the keys of the prefix-0 segment of a
// one-bit directory whose home is its bucket 5, so that they fill the pair
// (5, 6) and then, none of them homed in 6 for a displacement to move, spill
// to the stash.
func homedIn5(_ *Table, p hashfn.Parts) bool {
	return p.DirIndex(1) == 0 && p.BucketIndex(bucketBits) == 5
}

// stashSpillHistory inserts homedIn5 keys into a dry table of InitialDepth 1
// up to the first insert that spills to the stash, and returns the inserts
// before it and that one.
func stashSpillHistory(t *testing.T) (prefix []fuzzOp, spill fuzzOp) {
	t.Helper()
	dry := newTestTable(t, 2<<20, Options{InitialDepth: 1})
	defer dry.Close()
	next := keysWhere(homedIn5)
	for {
		k := next(dry)
		op := fuzzOp{kind: 'i', id: k, val: k*3 + 1}
		spills := dry.met.placed[placedStash].Total()
		if err := applyCrashOp(dry, op); err != nil {
			t.Fatal(err)
		}
		if dry.met.placed[placedStash].Total() > spills {
			return prefix, op
		}
		prefix = append(prefix, op)
	}
}

// TestCrashStashSpill crashes an insert that spills to the stash at every
// flush: its one, of the record's line in the stash bucket, whose word 0 is
// the commit. The home bucket's stash count is the mirror's alone, so a
// spill stores and persists nothing else (a second flush, the stash
// bucket's bitmap, while PM kept one; a third, the home's header line, while
// PM kept stash tracking), and every reopened image's counts are recomputed
// from the stash records that survived (verifyCrashPoint's Verify checks
// they are exact).
func TestCrashStashSpill(t *testing.T) {
	prefix, spill := stashSpillHistory(t)
	done, points := crashAtEveryFlush(t, crashCase{opt: Options{InitialDepth: 1}, prefix: prefix, last: spill})
	if points != 1 {
		t.Fatalf("the stash spill issued %d flushes, want 1: the record's line", points)
	}
	requireVerified(t, done)
	requireStashFound(t, done, "the completed spill")
}

// TestCrashStashDelete crashes the delete of a stash record at its one
// flush, the record's zeroed word 0: the count's decrement is the home's
// mirror's alone (a second flush while PM kept stash tracking).
func TestCrashStashDelete(t *testing.T) {
	prefix, spill := stashSpillHistory(t)
	done, points := crashAtEveryFlush(t, crashCase{opt: Options{InitialDepth: 1}, prefix: append(prefix, spill), last: fuzzOp{kind: 'd', id: spill.id}})
	if points != 1 {
		t.Fatalf("the stash delete issued %d flushes, want 1: word 0", points)
	}
	requireVerified(t, done)
	requireStashFound(t, done, "the completed delete")
}

// TestCrashStashMovedBySplit: stash records on both sides of a split, a
// clean Close and an Open, then the delete of a stash record the old segment
// kept — its first touch — crashed at every flush. The split drops its moved
// half's stash records from the old mirror alone, so the old segment's PM
// stash still holds them, stale; first touch drops them by route and
// recounts the stash counts from the records that survive, so they must be
// exact: no home counts a record the filter dropped (Verify), no stash
// record is unreachable, and the mirrors count what Count does.
func TestCrashStashMovedBySplit(t *testing.T) {
	withLazyGates(t)
	opt := Options{InitialDepth: 1}
	dry := newTestTable(t, 2<<20, opt)
	defer dry.Close()
	// Spill homedIn5 keys until the stash holds some of either half, then
	// fill the segment with any prefix-0 keys until it splits.
	var prefix []fuzzOp
	var moved, kept []uint64
	homed := keysWhere(homedIn5)
	for len(moved) < 2 || len(kept) < 2 {
		k := homed(dry)
		spills := dry.met.placed[placedStash].Total()
		prefix = append(prefix, fuzzOp{kind: 'i', id: k, val: k*3 + 1})
		if err := applyCrashOp(dry, prefix[len(prefix)-1]); err != nil {
			t.Fatal(err)
		}
		if dry.met.placed[placedStash].Total() == spills {
			continue
		}
		if dry.parts(k).DirIndex(2) == 1 {
			moved = append(moved, k)
		} else {
			kept = append(kept, k)
		}
	}
	fill := keysWhere(prefix0)
	for dry.met.splits.Total() == 0 {
		k := fill(dry)
		if homedIn5(dry, dry.parts(k)) {
			continue // taken above
		}
		prefix = append(prefix, fuzzOp{kind: 'i', id: k, val: k*3 + 1})
		if err := applyCrashOp(dry, prefix[len(prefix)-1]); err != nil {
			t.Fatal(err)
		}
	}
	if dry.GlobalDepth() != 2 {
		t.Fatalf("the prefix left global depth %d, want the one split to depth 2", dry.GlobalDepth())
	}
	done, points := crashAtEveryFlush(t, crashCase{opt: opt, prefix: prefix, reopen: true, last: fuzzOp{kind: 'd', id: kept[0]}})
	if points != 1 {
		t.Fatalf("the first touch and its stash delete issued %d flushes, want 1: word 0", points)
	}
	done.RecoverAll()
	requireVerified(t, done)
	requireStashFound(t, done, "the completed first touch")
	if st := done.Stats(); st.Records != done.Count() {
		t.Fatalf("the mirrors hold %d records, Count is %d", st.Records, done.Count())
	}
	for _, k := range append(moved, kept[1:]...) {
		if v, ok := done.Get(k); !ok || v != k*3+1 {
			t.Fatalf("stash key %d = %d,%v after the first touch", k, v, ok)
		}
	}
}

// requireStashFound checks that the writers' probe finds every stash record
// of every recovered segment of tbl, in the stash bucket that holds it: no
// home's stash count lets a probe skip the stash while it holds a record of
// that home. That each count is exact is Verify's to check, which every
// caller runs on tbl too.
func requireStashFound(t *testing.T, tbl *Table, where string) {
	t.Helper()
	for seg, d := range segDescs(tbl) {
		mir := d.mir.Load()
		if mir == nil {
			continue
		}
		for sb := normalBuckets; sb < totalBuckets; sb++ {
			for used := mir.word(sb, mirBkMeta).Load() & slotMask; used != 0; used &= used - 1 {
				kv := mir.rec(sb, bits.TrailingZeros64(used))
				pk := tbl.probeU64(recWordKey(kv.Key))
				if recIsIndirect(kv.Key) {
					pk = tbl.probeBytes(tbl.vlog.KeyBytes(recBlobAddr(kv.Key)))
				}
				if _, loc, ok, _ := mirSegSearch(tbl.vlog, mir, &pk, true); !ok || loc.bucket != sb {
					t.Fatalf("%s: segment %#x: the stash record %+v is unreachable", where, seg, kv)
				}
			}
		}
	}
}
