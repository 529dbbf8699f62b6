package core

import (
	"errors"
	"slices"
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

// markerWords returns the split-marker word of every segment tbl has now. A
// split persists its marker with the one 8-byte flush of that word, so a
// flush hook recognises the split of any of these segments by the range.
func markerWords(tbl *Table) map[pmem.Addr]bool {
	words := make(map[pmem.Addr]bool)
	for seg := range tbl.cache.descs {
		words[seg.Add(segOffSplit)] = true
	}
	return words
}

// TestConcurrentSplitsDistinctSegments proves splits of distinct segments
// proceed in parallel: the first split to persist its progress marker blocks
// at that flush until a split of a *different* segment has persisted its own.
// Under a table-wide split mutex the second split could never start and this
// test would time out; with per-segment split ownership both arrive.
func TestConcurrentSplitsDistinctSegments(t *testing.T) {
	tbl := newTestTable(t, 64<<20, Options{InitialDepth: 2})

	// Each goroutine below fills one initial segment's subtree, so the first
	// split it carries is of that segment.
	markers := markerWords(tbl)
	var (
		mu      sync.Mutex
		marked  = make(map[pmem.Addr]bool)
		both    = make(chan struct{})
		closed  bool
		timeout atomic.Bool
	)
	tbl.pool.SetFlushHook(func(a pmem.Addr, n uint64) {
		if n != 8 || !markers[a] {
			return
		}
		mu.Lock()
		marked[a] = true
		if len(marked) >= 2 && !closed {
			closed = true
			close(both)
		}
		mu.Unlock()
		select {
		case <-both:
		case <-time.After(splitTestTimeout):
			timeout.Store(true)
		}
	})
	defer tbl.pool.SetFlushHook(nil)

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
		t.Fatal("second segment's split never persisted its marker: splits are serialized")
	}
	if s := tbl.Stats().Splits; s < 2 {
		t.Fatalf("expected >= 2 completed splits, got %d", s)
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
	// The first split is of an initial segment, named by its marker flush.
	markers := markerWords(tbl)
	var first atomic.Uint64 // the first split's segment
	var parkedOnce atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	tbl.pool.SetFlushHook(func(a pmem.Addr, n uint64) {
		if n == 8 && markers[a] {
			first.CompareAndSwap(0, uint64(a)-segOffSplit)
		}
		// The header persist (segSetMeta) is the only flush of a whole
		// segment header; the marker's persists flush its one word.
		if uint64(a) == first.Load() && n == segHeaderSize && parkedOnce.CompareAndSwap(false, true) {
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
// segment's mirror. The 11 writes are the stores the protocol makes — two
// allocator frontiers, marker, sibling header, root pointer, flipped entry,
// old header, the retried insert — with no lock among them; the doubled
// directory's words are quiet, charged by the flush that publishes the block,
// and the sweep of the moved half stores nothing (segDrop). The retried
// insert routes to the sibling and, like every insert, writes its record's
// line alone, with one flush and one fence. Had the slot been stale, the
// insert would cost the same (TestStaleSlotInsertCharges). History: with a
// PM bitmap, which the insert also stored and persisted, 0 / 11 / 275 / 10;
// with the sweep persisted — one meta word per bucket it touched,
// each flushed, and a fence — the same insert charged 0 / 78 / 341 / 11; with
// the claim a CAS on the PM split word, PM directory walks, the allocator's
// frontier a PM CAS and the doubling charged per entry, 10 / 84 / 341 / 11,
// and with the locks and the copy's scan in PM too, 284 / 90 / 341 / 11.
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
		if want := [4]uint64{0, 11, 274, 9}; got != want {
			t.Fatalf("Insert(%d) with the first split charged read/write/flush/fence = %v, want %v", k, got, want)
		}
		break
	}
}

// insertThroughSplit inserts sequential keys into tbl, from 0, up to and
// including the first insert that carries a split, and returns them as a
// crash history's ops.
func insertThroughSplit(t *testing.T, tbl *Table) []fuzzOp {
	t.Helper()
	var ops []fuzzOp
	for k := uint64(0); tbl.met.splits.Total() == 0; k++ {
		op := fuzzOp{kind: 'i', id: k, val: k*3 + 1}
		if err := applyCrashOp(tbl, op); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
	return ops
}

// staleSlot reports whether slot of bucket bi of d's segment is stale: clear
// in its mirror, while PM holds a record there (a non-zero word 0) — one a
// drop removed from the mirror alone.
func staleSlot(tbl *Table, d *segDesc, bi, slot int) bool {
	return !metaSlotUsed(d.mir.Load().word(bi, mirBkMeta).Load(), slot) &&
		tbl.pool.QuietLoadU64(recordAddr(segBucket(d.seg, bi), slot)) != 0
}

// holdsStale reports whether any slot of d's segment is stale.
func holdsStale(tbl *Table, d *segDesc) bool {
	for bi := 0; bi < totalBuckets; bi++ {
		for slot := 0; slot < slotsPerBucket; slot++ {
			if staleSlot(tbl, d, bi, slot) {
				return true
			}
		}
	}
	return false
}

// staleSegment returns the one segment of tbl that holds stale slots: the
// old segment of tbl's only split, or after a reopen the segment the route
// filter dropped its leftovers from.
func staleSegment(t *testing.T, tbl *Table) *segDesc {
	t.Helper()
	var found *segDesc
	for _, d := range tbl.cache.descs {
		if d.mir.Load() != nil && holdsStale(tbl, d) {
			if found != nil {
				t.Fatalf("segments %#x and %#x both hold stale slots", found.seg, d.seg)
			}
			found = d
		}
	}
	if found == nil {
		t.Fatal("no segment holds a stale slot: nothing was dropped in DRAM alone")
	}
	return found
}

// staleSlotKey returns the first key from `from` up, of the next 1<<16, that
// routes to d and whose insert lands in a stale slot: the bucket a balanced
// insert picks for it has its lowest free slot stale. It returns that bucket
// and slot too; ok is false if no key of the range does.
func staleSlotKey(tbl *Table, d *segDesc, from uint64) (k uint64, bi, slot int, ok bool) {
	mir := d.mir.Load()
	for k = from; k < from+1<<16; k++ {
		parts := tbl.parts(k)
		if tbl.cache.route(parts) != d {
			continue
		}
		b, b2 := homePair(parts)
		switch f1, f2 := bucketFreeSlots(mir, b), bucketFreeSlots(mir, b2); {
		case f1 >= f2 && f1 > 0:
			bi = b
		case f2 > 0:
			bi = b2
		default:
			continue
		}
		slot = metaFirstFree(mir.word(bi, mirBkMeta).Load())
		if staleSlot(tbl, d, bi, slot) {
			return k, bi, slot, true
		}
	}
	return 0, 0, 0, false
}

// TestStaleSlotInsertCharges pins what a DRAM-only sweep costs a later
// insert: nothing. After a split the old segment's moved records stay in its
// PM buckets; an insert whose slot — the lowest free one in the mirror, as
// always — holds one of them overwrites it in the record's one line, with
// its zero, value and key stores and one persist (bucketInsertLocked). On a
// quiet table with the cost model off, each such insert charges
// read/write/flush/fence 0 / 1 / 1 / 1, as every insert does, lands in the
// slot, and leaves it no longer stale.
func TestStaleSlotInsertCharges(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{InitialDepth: 1})
	defer tbl.Close()
	p := tbl.pool
	insertThroughSplit(t, tbl)
	d := staleSegment(t, tbl)
	mir := d.mir.Load()
	inserts := 0
	for from := uint64(1) << 40; ; {
		k, bi, slot, ok := staleSlotKey(tbl, d, from)
		if !ok {
			break
		}
		from = k + 1
		got := pmLines(p, func() {
			if err := tbl.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		})
		if want := [4]uint64{0, 1, 1, 1}; got != want {
			t.Fatalf("Insert(%d) into stale slot %d of bucket %d charged read/write/flush/fence = %v, want %v", k, slot, bi, got, want)
		}
		pk := tbl.probeU64(k)
		if _, loc, _, _ := mirSegSearch(tbl.vlog, mir, &pk, true); loc.bucket != bi || loc.slot != slot {
			t.Fatalf("Insert(%d) landed in bucket %d slot %d, want the stale slot %d of bucket %d", k, loc.bucket, loc.slot, slot, bi)
		}
		if staleSlot(tbl, d, bi, slot) {
			t.Fatalf("after Insert(%d), slot %d of bucket %d is still stale", k, slot, bi)
		}
		inserts++
	}
	if inserts == 0 {
		t.Fatal("no insert after the split took a stale slot")
	}
	t.Logf("%d stale-slot inserts", inserts)
}

// TestSplitOverflowUnderLocksRecyclesSibling drives the copy into
// ErrSegmentOverflow: splitPublish is handed a private sibling whose mirror is
// already stuffed, so the copy, under all of the old segment's locks, cannot
// place the first record it moves. The split must roll back, losing nothing,
// and hand the sibling's block back to the allocator.
func TestSplitOverflowUnderLocksRecyclesSibling(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{InitialDepth: 1})
	defer tbl.Close()
	p := tbl.pool
	acked := make(map[uint64]uint64)
	var k uint64
	for ; k < slotsPerSegment/2; k++ { // two segments, neither full
		if err := tbl.Insert(k, k+1); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		acked[k] = k + 1
	}

	// What split does before its publish, with every bucket of the sibling
	// filled.
	old := tbl.cache.route(tbl.parts(0))
	l, pat := uint8(old.mir.Load().depth.Load()), old.mir.Load().pattern.Load()
	sibling, err := tbl.alloc(segmentSize)
	if err != nil {
		t.Fatal(err)
	}
	segInit(p, sibling, l+1, pat<<1|1)
	sib := &segDesc{seg: sibling}
	sib.mir.Store(tbl.newMirror(l+1, pat<<1|1))
	for bi := 0; bi < totalBuckets; bi++ {
		for bucketInsertLocked(tbl.pool, sib.mir.Load(), segBucket(sibling, bi), bi, 0xEE, pmem.KV{Key: 1, Value: 1}, false) >= 0 {
		}
	}
	spa := old.seg.Add(segOffSplit)
	p.StoreU64(spa, uint64(sibling)|splitStateInFlight)
	p.Persist(spa, 8)
	if err := tbl.splitPublish(old, sib, l, pat); !errors.Is(err, ErrSegmentOverflow) {
		t.Fatalf("splitPublish into a stuffed sibling = %v, want ErrSegmentOverflow", err)
	}

	if m := p.QuietLoadU64(spa); m != 0 {
		t.Fatalf("the rollback left the marker at %#x", m)
	}
	if len(tbl.freeList) != 1 || tbl.freeList[0] != (freeSpan{addr: sibling, size: allocRound(segmentSize)}) {
		t.Fatalf("free list = %+v, want the sibling's block %#x", tbl.freeList, sibling)
	}
	if st := tbl.Stats(); st.Splits != 0 || st.SegFilterBytes != uint64(st.Segments)*segMirrorBytes {
		t.Fatalf("after the rollback: %d splits, %d mirror bytes for %d segments", st.Splits, st.SegFilterBytes, st.Segments)
	}
	requireVerified(t, tbl)

	// The retried split takes the recycled block, not a new one. It doubles
	// the directory, which frees the old directory block at once: that block
	// is all the free list may hold after it.
	frontier := p.QuietLoadU64(rootAddr.Add(rootOffAllocNxt))
	oldDir := tbl.cache.view.Load().dir
	for ; tbl.met.splits.Total() == 0; k++ {
		if err := tbl.Insert(k, k+1); err != nil {
			t.Fatalf("insert %d after the rollback: %v", k, err)
		}
		acked[k] = k + 1
	}
	if tbl.cache.descs[sibling] == nil || len(tbl.freeList) != 1 || tbl.freeList[0] != (freeSpan{addr: oldDir, size: allocRound(dirSize(1))}) {
		t.Fatalf("the retried split did not publish the recycled block (free list %+v, want only the old directory %#x)", tbl.freeList, oldDir)
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

// TestDoublingFreesOldDirectoryAtOnce: a doubling puts the old PM directory
// block on the free list before the insert that carried it returns, with no
// epoch drain and nothing retired: no operation loads a PM directory entry,
// so no reader can still be in the block.
func TestDoublingFreesOldDirectoryAtOnce(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{InitialDepth: 1})
	defer tbl.Close()
	doublings := 0
	for k := uint64(0); doublings < 4; k++ {
		v, retired := tbl.cache.view.Load(), tbl.em.Retired.Total()
		if err := tbl.Insert(k, k); err != nil {
			t.Fatal(err)
		}
		if tbl.GlobalDepth() == v.depth {
			continue
		}
		doublings++
		if want := (freeSpan{addr: v.dir, size: allocRound(dirSize(v.depth))}); !slices.Contains(tbl.freeList, want) {
			t.Fatalf("after doubling to depth %d: free list %+v lacks the old directory %+v", tbl.GlobalDepth(), tbl.freeList, want)
		}
		if got := tbl.em.Retired.Total(); got != retired {
			t.Fatalf("the doubling retired %d objects through the epoch manager", got-retired)
		}
	}
}
