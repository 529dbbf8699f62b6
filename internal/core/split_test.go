package core

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dash/internal/hashfn"
	"dash/internal/pmem"
)

// splitTestTimeout bounds the cross-goroutine waits below: generous enough
// for a loaded -race CI box, far below the package test timeout.
const splitTestTimeout = 30 * time.Second

// fillPrefix inserts ascending keys whose top-two hash bits equal prefix,
// starting the key scan at start, until n inserts succeeded. Returns the
// next unscanned key. The prefix pins every key to the subtree of one
// initial-depth-2 segment, whatever the global depth grows to.
func fillPrefix(t *testing.T, tbl *Table, prefix uint64, start, n uint64) uint64 {
	t.Helper()
	k := start
	for done := uint64(0); done < n; k++ {
		if tbl.parts(k).DirIndex(2) != prefix {
			continue
		}
		if err := tbl.Insert(k, k^0xABCD); err != nil {
			t.Fatalf("fill insert %d: %v", k, err)
		}
		done++
	}
	return k
}

// TestConcurrentSplitsDistinctSegments proves splits of distinct segments
// proceed in parallel: the first split to reach mid-migration blocks until a
// split of a *different* segment also reaches mid-migration. Under the old
// table-wide split mutex the second split could never start and this test
// would time out; with per-segment split ownership both arrive.
func TestConcurrentSplitsDistinctSegments(t *testing.T) {
	tbl := newTestTable(t, 64<<20, Options{InitialDepth: 2})

	var (
		mu      sync.Mutex
		inMig   = make(map[pmem.Addr]bool)
		both    = make(chan struct{})
		closed  bool
		timeout atomic.Bool
	)
	tbl.hookMidMigrate = func(seg pmem.Addr, _ *segDesc, bucket int) {
		if bucket != normalBuckets/2 {
			return
		}
		mu.Lock()
		inMig[seg] = true
		if len(inMig) >= 2 && !closed {
			closed = true
			close(both)
		}
		mu.Unlock()
		select {
		case <-both:
		case <-time.After(splitTestTimeout):
			timeout.Store(true)
		}
	}

	// Two goroutines, each filling its own initial segment's key prefix
	// until that segment must have split at least once (a segment holds at
	// most slotsPerSegment records).
	var wg sync.WaitGroup
	for _, prefix := range []uint64{0, 2} {
		wg.Add(1)
		go func(prefix uint64) {
			defer wg.Done()
			fillPrefix(t, tbl, prefix, prefix*1<<40, slotsPerSegment+200)
		}(prefix)
	}
	wg.Wait()

	if timeout.Load() {
		t.Fatal("second segment's split never reached migration: splits are serialized")
	}
	if s := tbl.Stats().Splits; s < 2 {
		t.Fatalf("expected >= 2 completed splits, got %d", s)
	}
}

// TestReaderDuringSplitMigration pauses the first split mid-migration —
// half the buckets copied, half not, directory untouched — and has a reader
// sweep every acknowledged key. Records on both sides of the migration
// front must stay readable with their exact values: the split must be
// invisible to readers until it publishes.
func TestReaderDuringSplitMigration(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{InitialDepth: 1})

	acked := make(map[uint64]uint64)
	paused := make(chan struct{})  // closed when the split reaches mid-migration
	release := make(chan struct{}) // closed when the reader is done
	var once sync.Once
	tbl.hookMidMigrate = func(_ pmem.Addr, _ *segDesc, bucket int) {
		if bucket != normalBuckets/2 {
			return
		}
		once.Do(func() {
			close(paused)
			select {
			case <-release:
			case <-time.After(splitTestTimeout):
				t.Error("reader never released the paused split")
			}
		})
	}

	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		<-paused
		// The inserter is parked inside the split hook, so acked is frozen;
		// the channel close orders our reads after its last write.
		for pass := 0; pass < 3; pass++ {
			for k, want := range acked {
				v, ok := tbl.Get(k)
				if !ok {
					t.Errorf("mid-split: key %d missing", k)
					close(release)
					return
				}
				if v != want {
					t.Errorf("mid-split: key %d = %d, want %d (torn read)", k, v, want)
					close(release)
					return
				}
			}
		}
		close(release)
	}()

	// Insert until the split (and with it the reader) has run. 2 segments
	// hold at most 2*slotsPerSegment records, so this fill must split.
	for k := uint64(0); k < 3*slotsPerSegment; k++ {
		if err := tbl.Insert(k, k*7+3); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		acked[k] = k*7 + 3
	}
	select {
	case <-readerDone:
	case <-time.After(splitTestTimeout):
		t.Fatal("reader did not finish")
	}

	// And after everything settles, the table is intact.
	for k, want := range acked {
		if v, ok := tbl.Get(k); !ok || v != want {
			t.Fatalf("post-split: key %d = %d,%v want %d", k, v, ok, want)
		}
	}
}

// TestWritersDuringSplitMigration pauses the first split mid-migration and
// drives concurrent inserts, deletes and updates against the splitting
// segment from other goroutines — the validate-and-recopy path: the publish
// must notice that the copy it holds is of a state that no longer exists and
// redo it under the locks, or records would be lost, resurrected or stale
// once the split publishes.
func TestWritersDuringSplitMigration(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{InitialDepth: 1})

	paused := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	tbl.hookMidMigrate = func(_ pmem.Addr, _ *segDesc, bucket int) {
		if bucket != normalBuckets/2 {
			return
		}
		once.Do(func() {
			close(paused)
			select {
			case <-release:
			case <-time.After(splitTestTimeout):
				t.Error("writers never released the paused split")
			}
		})
	}

	state := make(map[uint64]uint64) // expected value; deleted keys removed
	writersDone := make(chan struct{})
	go func() {
		defer close(writersDone)
		<-paused
		// The splitting inserter is parked, so state is ours alone here.
		// Mutate existing keys on both sides of the migration front: delete
		// every 5th, update every 7th, delete+reinsert every 11th. A
		// reinsert always finds the slot its delete just freed in the
		// key's bucket pair, so none of these operations can trigger (and
		// then wait on) the paused split — while every one of them moves
		// bucket versions the paused copy has already snapshotted.
		var keys []uint64
		for k := range state {
			keys = append(keys, k)
		}
		for _, k := range keys {
			switch {
			case k%5 == 0:
				if !tbl.Delete(k) {
					t.Errorf("mid-split delete %d reported missing", k)
				}
				delete(state, k)
			case k%7 == 0:
				if ok, err := tbl.Update(k, k+1000000); !ok || err != nil {
					t.Errorf("mid-split update %d reported missing", k)
				}
				state[k] = k + 1000000
			case k%11 == 0:
				if !tbl.Delete(k) {
					t.Errorf("mid-split delete %d reported missing", k)
				}
				if err := tbl.Insert(k, k+2000000); err != nil {
					t.Errorf("mid-split reinsert %d: %v", k, err)
				}
				state[k] = k + 2000000
			}
		}
		close(release)
	}()

	for k := uint64(0); k < 3*slotsPerSegment; k++ {
		if err := tbl.Insert(k, k*3+1); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		if _, dup := state[k]; dup {
			t.Fatalf("key %d generated twice", k)
		}
		// Only record keys inserted before the pause is possible to matter;
		// the map is shared but the writer goroutine touches it only while
		// this loop's inserter is parked inside the split hook.
		state[k] = k*3 + 1
	}
	select {
	case <-writersDone:
	case <-time.After(splitTestTimeout):
		t.Fatal("mid-split writers did not finish")
	}

	for k, want := range state {
		if v, ok := tbl.Get(k); !ok || v != want {
			t.Fatalf("key %d = %d,%v want %d", k, v, ok, want)
		}
	}
	if got, want := tbl.Count(), int64(len(state)); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	// The fixed seed makes the key→segment mapping deterministic: half of
	// the mid-split mutations hit the splitting segment, so its copy must
	// have been rejected and redone.
	if r := tbl.met.splitRecopies.Total(); r < 1 {
		t.Fatal("mid-split writers never forced a recopy")
	}
}

// pauseFirstCopy arms hookMidMigrate to run during once, halfway through the
// insert phase of the first split's unlocked copy — every source bucket
// snapshotted, no lock of the splitting segment held — with that segment's
// address. during runs on its own goroutine (the hook's is inside an
// operation) while the splitting inserter stays parked.
func pauseFirstCopy(tbl *Table, during func(seg pmem.Addr)) {
	var once sync.Once
	tbl.hookMidMigrate = func(seg pmem.Addr, _ *segDesc, bucket int) {
		if bucket != normalBuckets/2 {
			return
		}
		once.Do(func() {
			done := make(chan struct{})
			go func() {
				defer close(done)
				during(seg)
			}()
			<-done
		})
	}
}

// TestSplitCopyValidatedByVersions pins the one thing writers and a split
// still say to each other: a mutation of the splitting segment after its
// buckets were snapshotted moves a bucket version, and the publish then
// throws the copy away and redoes it under the locks — exactly once, for
// every kind of mutation there is, including the ones that change nothing
// the copy read. Each case applies one mutation to the moving half while the
// first split's unlocked copy is paused; the table must end in the oracle's
// state with its mirrors exact, and split.recopies at 1.
func TestSplitCopyValidatedByVersions(t *testing.T) {
	type env struct {
		*routeFixture
		seg pmem.Addr // the splitting segment
		l   uint8     // its local depth: DepthBit(l) names the moving half
	}
	// pick returns the first i < next whose u64 (or, with varKey, []byte)
	// record lives in the moving half of the splitting segment at a place
	// ok accepts. The fixture is quiescent: no lock is needed to look.
	pick := func(t *testing.T, e *env, varKey bool, ok func(pk *probeKey, loc recLoc) bool) (uint64, bool) {
		for i := uint64(0); i < e.next; i++ {
			pk := e.tbl.probeU64(i)
			if varKey {
				pk = e.tbl.probeBytes(routeKeyB(i))
			}
			if e.tbl.cache.route(pk.parts).seg != e.seg || !pk.parts.DepthBit(e.l) {
				continue
			}
			if _, loc, found := mirSegSearch(e.tbl.vlog, mirrorOf(e.tbl, e.seg), &pk, true); found && ok(&pk, loc) {
				return i, true
			}
		}
		t.Error("the splitting segment holds no record of the kind this case needs")
		return 0, false
	}
	anywhere := func(*probeKey, recLoc) bool { return true }
	// fresh returns an absent u64 key the splitting segment's moving half
	// would own, whose bucket pair ok accepts.
	fresh := func(t *testing.T, e *env, ok func(b, b2 int) bool) (uint64, bool) {
		for k := uint64(1) << 40; k < 1<<40+100000; k++ {
			parts := e.tbl.parts(k)
			if e.tbl.cache.route(parts).seg != e.seg || !parts.DepthBit(e.l) {
				continue
			}
			if b, b2 := homePair(parts); ok(b, b2) {
				return k, true
			}
		}
		t.Error("no fresh key fits this case")
		return 0, false
	}
	free := func(e *env, bi int) int { return bucketFreeSlots(mirrorOf(e.tbl, e.seg), bi) }
	version := func(e *env, bi int) uint64 { return mirrorOf(e.tbl, e.seg).word(bi, mirBkVersion).Load() }

	cases := []struct {
		name   string
		mutate func(t *testing.T, e *env)
	}{
		{"no interference", nil},
		{"in-place Update in a normal bucket", func(t *testing.T, e *env) {
			k, ok := pick(t, e, false, func(_ *probeKey, loc recLoc) bool { return !loc.inStash() })
			if !ok {
				return
			}
			if ok, err := e.tbl.Update(k, k+100); !ok || err != nil {
				t.Errorf("Update(%d) = %v, %v", k, ok, err)
			}
			e.u[k] = k + 100
		}},
		{"in-place Update of a stash-resident record", func(t *testing.T, e *env) {
			var stash int
			k, ok := pick(t, e, false, func(_ *probeKey, loc recLoc) bool { stash = loc.bucket; return loc.inStash() })
			if !ok {
				return
			}
			home, _ := homePair(e.tbl.parts(k))
			sv, hv := version(e, stash), version(e, home)
			if ok, err := e.tbl.Update(k, k+100); !ok || err != nil {
				t.Errorf("Update(%d) = %v, %v", k, ok, err)
			}
			e.u[k] = k + 100
			// The record's own bucket cannot vouch for it; its home can.
			if version(e, stash) != sv || version(e, home) == hv {
				t.Errorf("stash version %d→%d, home version %d→%d: want only the home's to move",
					sv, version(e, stash), hv, version(e, home))
			}
		}},
		{"Delete", func(t *testing.T, e *env) {
			k, ok := pick(t, e, false, anywhere)
			if !ok {
				return
			}
			if !e.tbl.Delete(k) {
				t.Errorf("Delete(%d) reported missing", k)
			}
			delete(e.u, k)
		}},
		{"Delete + Insert of the same key", func(t *testing.T, e *env) {
			// The reinsert takes the slot the delete freed: the bucket holds
			// the same key in the same place as when it was snapshotted.
			k, ok := pick(t, e, false, func(_ *probeKey, loc recLoc) bool { return !loc.inStash() })
			if !ok {
				return
			}
			if !e.tbl.Delete(k) {
				t.Errorf("Delete(%d) reported missing", k)
			}
			if err := e.tbl.Insert(k, k+200); err != nil {
				t.Errorf("re-Insert(%d): %v", k, err)
			}
			e.u[k] = k + 200
		}},
		{"Insert that displaces a neighbour's record", func(t *testing.T, e *env) {
			var b3 int
			k, ok := fresh(t, e, func(b, b2 int) bool {
				b3 = (b2 + 1) % normalBuckets
				return free(e, b) == 0 && free(e, b2) == 0 && free(e, b3) > 0
			})
			if !ok {
				return
			}
			before := free(e, b3)
			if err := e.tbl.Insert(k, k+1); err != nil {
				t.Errorf("Insert(%d): %v", k, err)
			}
			e.u[k] = k + 1
			if free(e, b3) != before-1 {
				t.Errorf("Insert(%d) displaced nothing into bucket %d", k, b3)
			}
		}},
		{"copy-on-write UpdateB", func(t *testing.T, e *env) {
			i, ok := pick(t, e, true, anywhere)
			if !ok {
				return
			}
			if ok, err := e.tbl.UpdateB(routeKeyB(i), routeValB(i, 1)); !ok || err != nil {
				t.Errorf("UpdateB(%d) = %v, %v", i, ok, err)
			}
			e.b[string(routeKeyB(i))] = routeValB(i, 1)
		}},
		{"inline → indirect converting UpdateB", func(t *testing.T, e *env) {
			// The converted record is inserted beside the old one: only a
			// pair with a free slot takes it without waiting for the split.
			k, ok := pick(t, e, false, func(pk *probeKey, _ recLoc) bool {
				b, b2 := homePair(pk.parts)
				return free(e, b) > 0 || free(e, b2) > 0
			})
			if !ok {
				return
			}
			var kb [8]byte
			binary.LittleEndian.PutUint64(kb[:], k)
			if ok, err := e.tbl.UpdateB(kb[:], routeValB(k, 3)); !ok || err != nil {
				t.Errorf("UpdateB(%d) = %v, %v", k, ok, err)
			}
			delete(e.u, k)
			e.b[string(kb[:])] = routeValB(k, 3)
		}},
		{"Update of an absent key", func(t *testing.T, e *env) {
			// Locks the pair and stores nothing: the versions cannot tell,
			// so this too costs a recopy.
			k, ok := fresh(t, e, func(int, int) bool { return true })
			if !ok {
				return
			}
			if ok, err := e.tbl.Update(k, 1); ok || err != nil {
				t.Errorf("Update(absent %d) = %v, %v", k, ok, err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := &env{routeFixture: newRouteFixture(t)}
			defer e.tbl.Close()
			tbl := e.tbl
			pauseFirstCopy(tbl, func(seg pmem.Addr) {
				e.seg, e.l = seg, uint8(tbl.pool.QuietLoadU64(seg.Add(segOffDepth)))
				if c.mutate != nil {
					c.mutate(t, e)
				}
			})
			e.grow(t, func() bool { return tbl.met.splits.Total() >= 1 })
			want := uint64(1)
			if c.mutate == nil {
				want = 0
			}
			if got := tbl.met.splitRecopies.Total(); got != want {
				t.Errorf("split.recopies = %d, want %d", got, want)
			}
			e.verify(t)
		})
	}
}

// TestSecondClaimantSeesPublishedClaim parks the first split's publish in
// its header persist — the sibling published, the moved half's directory
// entries flipped, the old segment's claim about to narrow, every lock of it
// held — and has a second goroutine call split on the same descriptor with a
// key the publish keeps on the old side, whose bucket pair is full. Split
// ownership lasts until the publish is written through, so the second split
// waits for it and then sees the published claim: it declines (the sweep
// made room) or splits the old segment at depth l+1 — never at the stale
// (l, pattern), which would flip the first sibling's entries to a sibling of
// its own and strand every key the first split moved.
func TestSecondClaimantSeesPublishedClaim(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{InitialDepth: 1})
	var first atomic.Uint64 // the first split's segment
	tbl.hookMidMigrate = func(seg pmem.Addr, _ *segDesc, _ int) { first.CompareAndSwap(0, uint64(seg)) }
	var published, armed atomic.Bool
	tbl.hookAfterPublish = func() { armed.Store(published.CompareAndSwap(false, true)) }
	parked, release := make(chan struct{}), make(chan struct{})
	tbl.pool.SetFlushHook(func() {
		if armed.CompareAndSwap(true, false) { // segSetMeta's persist
			close(parked)
			select {
			case <-release:
			case <-time.After(splitTestTimeout):
				t.Error("the parked publish was never released")
			}
		}
	})
	defer tbl.pool.SetFlushHook(nil)

	acked := make(map[uint64]uint64)
	inserted := make(chan struct{})
	go func() {
		defer close(inserted)
		for k := uint64(0); tbl.met.splits.Total() == 0; k++ {
			if err := tbl.Insert(k, k+1); err != nil {
				t.Errorf("insert %d: %v", k, err)
				return
			}
			acked[k] = k + 1
		}
	}()
	select {
	case <-parked:
	case <-inserted:
		t.Fatal("the first split never reached its header persist")
	}

	// The inserter is parked inside the publish: acked, the descriptors and
	// the old segment's (still unnarrowed) mirror are safe to read.
	old := tbl.cache.descs[pmem.Addr(first.Load())]
	mir := old.mir.Load()
	l, pat := uint8(mir.depth.Load()), mir.pattern.Load()
	var parts hashfn.Parts
	for k := uint64(1) << 40; ; k++ {
		parts = tbl.parts(k)
		b, b2 := homePair(parts)
		if hashfn.SegmentIndex(parts.Hash, l) == pat && !parts.DepthBit(l) &&
			bucketFreeSlots(mir, b) == 0 && bucketFreeSlots(mir, b2) == 0 {
			break
		}
	}
	second := make(chan error)
	go func() { second <- tbl.split(parts, old) }()
	time.Sleep(50 * time.Millisecond) // let the second claimant reach its wait
	close(release)
	if err := <-second; err != nil {
		t.Fatalf("second split: %v", err)
	}
	<-inserted
	if got := uint8(mir.depth.Load()); got != l+1 && got != l+2 {
		t.Fatalf("the old segment is at depth %d after two claims from depth %d", got, l)
	}
	for k, want := range acked {
		if v, ok := tbl.Get(k); !ok || v != want {
			t.Errorf("Get(%d) = %d,%v want %d,true", k, v, ok, want)
		}
	}
}

// TestSplitCharges pins what an undisturbed split costs, in the mould of
// TestWriterReadCharges: on a quiet table with the cost model off, the insert
// that carries the first split (sequential keys, default seed: its failed
// attempt, the split, its retry) charges exactly these PM lines. It reads
// none: the claim is a DRAM CAS, the post-claim re-check, the publish and the
// doubling take the route, the directory's address and depth and its entries
// from the view, the allocator's frontier is DRAM, and the copy scans the old
// segment's mirror. The 78 writes are the stores the protocol makes — two
// allocator frontiers, marker, sibling header, root pointer, flipped entry,
// old header, one meta word per swept bucket, the retried insert — with no
// lock among them; the doubled directory's words are quiet, charged by the
// flush that publishes the block. With the claim a CAS on the PM split word,
// PM directory walks, the allocator's frontier a PM CAS and the doubling
// charged per entry, the same insert read 10 and wrote 84 (with the locks
// and the copy's scan in PM too, 284 and 90); flushes and fences are the
// same 341 and 11 throughout, which is the proof that no move took a
// persist with it.
func TestSplitCharges(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{InitialDepth: 1})
	defer tbl.Close()
	p := tbl.pool
	for k := uint64(0); ; k++ {
		got := pmLines(p, func() {
			if err := tbl.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		})
		if tbl.met.splits.Total() == 0 {
			continue
		}
		if want := [4]uint64{0, 78, 341, 11}; got != want {
			t.Fatalf("Insert(%d) with the first split charged read/write/flush/fence = %v, want %v", k, got, want)
		}
		break
	}
	if r := tbl.met.splitRecopies.Total(); r != 0 {
		t.Fatalf("an undisturbed split recopied %d times", r)
	}
}

// TestSplitOverflowUnderLocksRecyclesSibling drives the locked copy — the
// only one entitled to — into ErrSegmentOverflow: the first split's unlocked
// copy is invalidated (a lock and unlock of one bucket, the least a writer
// does), and the sibling is stuffed as soon as the recopy under the locks
// has placed its first group. The split must roll back, losing nothing, and
// hand the sibling's block back to the allocator.
func TestSplitOverflowUnderLocksRecyclesSibling(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{InitialDepth: 1})
	defer tbl.Close()
	p := tbl.pool
	var sibling pmem.Addr
	runs := 0
	tbl.hookMidMigrate = func(seg pmem.Addr, sib *segDesc, bucket int) {
		if bucket != 0 {
			return
		}
		switch runs++; runs {
		case 1: // unlocked run
			tbl.lockBucket(mirrorOf(tbl, seg), 7)
			unlockBucket(mirrorOf(tbl, seg), 7)
		case 2: // the recopy: all of seg's locks are held
			sibling = sib.seg
			for bi := 0; bi < totalBuckets; bi++ {
				for bucketInsertLocked(p, sib.mir.Load(), segBucket(sibling, bi), bi, 0xEE, pmem.KV{Key: 1, Value: 1}, false) {
				}
			}
		}
	}
	acked := make(map[uint64]uint64)
	var k uint64
	for ; ; k++ {
		err := tbl.Insert(k, k+1)
		if errors.Is(err, ErrSegmentOverflow) {
			break
		}
		if err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		acked[k] = k + 1
	}
	tbl.hookMidMigrate = nil
	if runs != 2 || tbl.met.splitRecopies.Total() != 1 {
		t.Fatalf("the overflow came after %d copy runs and %d recopies, want 2 and 1", runs, tbl.met.splitRecopies.Total())
	}
	if len(tbl.freeList) != 1 || tbl.freeList[0] != (freeSpan{addr: sibling, size: allocRound(segmentSize)}) {
		t.Fatalf("free list = %+v, want the sibling's block %#x", tbl.freeList, sibling)
	}
	if st := tbl.Stats(); st.Splits != 0 || st.SegFilterBytes != uint64(st.Segments)*segMirrorBytes {
		t.Fatalf("after the rollback: %d splits, %d mirror bytes for %d segments", st.Splits, st.SegFilterBytes, st.Segments)
	}
	requireVerified(t, tbl) // includes: no marker left
	if _, ok := tbl.Get(k); ok {
		t.Fatalf("the refused key %d is readable", k)
	}

	// The retried split takes the recycled block, not a new one.
	frontier := p.QuietLoadU64(rootAddr.Add(rootOffAllocNxt))
	for ; tbl.met.splits.Total() == 0; k++ {
		if err := tbl.Insert(k, k+1); err != nil {
			t.Fatalf("insert %d after the rollback: %v", k, err)
		}
		acked[k] = k + 1
	}
	if tbl.cache.descs[sibling] == nil || len(tbl.freeList) != 0 {
		t.Fatalf("the retried split did not publish the recycled block (free list %+v)", tbl.freeList)
	}
	if got := p.QuietLoadU64(rootAddr.Add(rootOffAllocNxt)); got-frontier >= allocRound(segmentSize) {
		t.Fatalf("the retried split moved the frontier %d→%d: room for a segment, past its doubled directory", frontier, got)
	}
	for key, want := range acked {
		if v, ok := tbl.Get(key); !ok || v != want {
			t.Fatalf("Get(%d) = %d,%v want %d,true", key, v, ok, want)
		}
	}
	if got := tbl.Count(); got != int64(len(acked)) {
		t.Fatalf("Count = %d, want %d", got, len(acked))
	}
}

// TestPoolFullMidSplitStaysServiceable: a split that dies at its directory
// doubling (the pool fits the sibling but not the doubled directory) must
// cost the pool one block however often its insert is retried, and leave a
// table that serves everything else — and whose crash image reopens to
// exactly the acknowledged set.
func TestPoolFullMidSplitStaysServiceable(t *testing.T) {
	// Find the insert behind the 4 → 5 doubling and the frontier before it;
	// single-threaded growth is deterministic, so a second table replays it.
	poolBlock := allocRound(segmentSize) // what alloc carves for a segment
	opt := Options{InitialDepth: 1}
	scout := newTestTable(t, 64<<20, opt)
	var trigger, frontier uint64
	for k := uint64(0); ; k++ {
		f := scout.pool.QuietLoadU64(rootAddr.Add(rootOffAllocNxt))
		if err := scout.Insert(k, k); err != nil {
			t.Fatal(err)
		}
		if scout.GlobalDepth() == 5 {
			trigger, frontier = k, f
			break
		}
	}
	scout.Close()

	pool, err := pmem.NewPool(pmem.Options{Size: frontier + poolBlock, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, opt)
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[uint64]uint64)
	for k := uint64(0); k < trigger; k++ {
		if err := tbl.Insert(k, k); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		acked[k] = k
	}
	for try := 0; try < 100; try++ {
		if err := tbl.Insert(trigger, trigger); !errors.Is(err, ErrPoolFull) {
			t.Fatalf("try %d of the doubling insert: %v, want ErrPoolFull", try, err)
		}
		if got := pool.QuietLoadU64(rootAddr.Add(rootOffAllocNxt)); got != frontier+poolBlock {
			t.Fatalf("try %d left the frontier at %d, want %d (one sibling past %d)", try, got, frontier+poolBlock, frontier)
		}
	}

	// Everything that needs no new block still works.
	for k := uint64(0); k < trigger; k++ {
		switch k % 3 {
		case 0:
			if ok, err := tbl.Update(k, k+5); !ok || err != nil {
				t.Fatalf("Update(%d) = %v, %v", k, ok, err)
			}
			acked[k] = k + 5
		case 1:
			if !tbl.Delete(k) {
				t.Fatalf("Delete(%d) reported missing", k)
			}
			delete(acked, k)
		}
	}
	fresh := 0
	for k := uint64(1) << 40; k < 1<<40+200; k++ {
		if err := tbl.Insert(k, k); err == nil {
			acked[k] = k
			fresh++
		} else if !errors.Is(err, ErrPoolFull) {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if fresh == 0 {
		t.Fatal("no insert found room in a full pool's segments")
	}
	check := func(stage string, tb *Table) {
		t.Helper()
		for k, want := range acked {
			if v, ok := tb.Get(k); !ok || v != want {
				t.Fatalf("%s: Get(%d) = %d,%v want %d,true", stage, k, v, ok, want)
			}
		}
		if _, ok := tb.Get(trigger); ok {
			t.Fatalf("%s: the refused key %d is readable", stage, trigger)
		}
		if got := tb.Count(); got != int64(len(acked)) {
			t.Fatalf("%s: Count = %d, want %d", stage, got, len(acked))
		}
		requireVerified(t, tb)
		if st := tb.Stats(); st.SegFilterBytes != uint64(st.Segments)*segMirrorBytes {
			t.Fatalf("%s: %d mirror bytes for %d segments", stage, st.SegFilterBytes, st.Segments)
		}
	}
	check("full pool", tbl)

	pool.Crash()
	reopened := openTestTable(t, pool)
	defer reopened.Close()
	check("reopened", reopened)
}

// --- crash injection at the new publish points ---

// TestCrashAfterSplitMarker: power loss right after the split-progress
// marker is persisted, before any record is migrated. Recovery must clear
// the marker and roll the split back; the old segment still owns everything.
func TestCrashAfterSplitMarker(t *testing.T) {
	crashAtHook(t, func(tbl *Table, fire func()) { tbl.hookAfterMarker = fire })
}

// TestCrashMidSplitMigration: power loss halfway through the incremental
// copy — the sibling holds an unflushed partial copy, the directory knows
// nothing. Recovery must roll back via the marker; no acknowledged record
// may be lost (migration only reads the old segment).
func TestCrashMidSplitMigration(t *testing.T) {
	crashAtHook(t, func(tbl *Table, fire func()) {
		tbl.hookMidMigrate = func(_ pmem.Addr, _ *segDesc, bucket int) {
			if bucket == normalBuckets/2 {
				fire()
			}
		}
	})
}

// TestCrashMidSweep: power loss after the directory flips and the old
// segment's metadata bump, with only the first bucket of the moved-record
// sweep persisted. Recovery must finish the sweep from the directory image
// (the remaining leftover copies route elsewhere and are dropped).
func TestCrashMidSweep(t *testing.T) {
	crashAtHook(t, func(tbl *Table, fire func()) { tbl.hookMidSweep = fire })
}
