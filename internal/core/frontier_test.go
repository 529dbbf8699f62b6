package core

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"dash/internal/pmem"
)

// Both allocators — the table's bump (segments, directories, log chunks) and
// the record log's per-chunk bump (blobs) — are DRAM counters whose PM
// frontier words only take stores, each persisted before the block it covers
// is handed out, under the allocator's mutex (ARCHITECTURE.md: the frontier
// argument). TestFrontierCrashPoints runs them concurrently and crashes at
// the K-th flush, for every K of the run: two goroutines carve blocks from
// the table's allocator and publish each in their half of a PM ledger, a
// third appends blobs through InsertB, whose chunks come from the same
// allocator. After each reopen
//
//   - the persisted frontiers lie at or past the end of every block a
//     published structure references: the directory and its segments, the
//     log's chunks and the ledger's blocks below the table's frontier, every
//     blob a slot references below its chunk's frontier, and reached by the
//     log's walk (Verify);
//   - blocks and blobs allocated afterwards are disjoint from every live one.

// span is the byte range [lo, hi) of a live or freshly allocated block.
type span struct {
	lo, hi uint64
	what   string
}

func frontierKey(i int) []byte { return []byte(fmt.Sprintf("frontier-key-%04d", i)) }
func frontierVal(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 3000) } // ≈ 85 blobs a chunk

const (
	frontierLedgerSlots = 96  // table allocations the two ledger goroutines publish
	frontierBlobs       = 160 // blob appends of the third
	frontierBlock       = 256 // bytes per ledger allocation
)

// runFrontierHistory runs the three allocating goroutines against a fresh
// table, simulating power loss at the crashAt-th flush (0: never). Every
// flush from the crashing one on panics in whichever goroutine issues it, so
// nothing reaches media after it; each goroutine stops there. Returns the
// crashed pool, the ledger's address and the number of flushes counted.
func runFrontierHistory(t *testing.T, crashAt int64) (*pmem.Pool, pmem.Addr, int64) {
	t.Helper()
	pool, err := pmem.NewPool(pmem.Options{Size: 2 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := tbl.alloc(8 * frontierLedgerSlots) // fresh and persisted zero
	if err != nil {
		t.Fatal(err)
	}
	var flushes atomic.Int64
	var crashed atomic.Bool
	pool.SetFlushHook(func(pmem.Addr, uint64) {
		if crashed.Load() || flushes.Add(1) == crashAt {
			crashed.Store(true)
			panic(crashNow{})
		}
	})
	var wg sync.WaitGroup
	run := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			crashes(f)
		}()
	}
	for half := uint64(0); half < 2; half++ {
		run(func() {
			for i := half * frontierLedgerSlots / 2; i < (half+1)*frontierLedgerSlots/2; i++ {
				a, err := tbl.alloc(frontierBlock)
				if err != nil {
					t.Errorf("alloc %d: %v", i, err)
					return
				}
				slot := ledger.Add(8 * i)
				pool.StoreU64(slot, uint64(a))
				pool.Persist(slot, 8)
			}
		})
	}
	run(func() {
		for i := 0; i < frontierBlobs; i++ {
			if err := tbl.InsertB(frontierKey(i), frontierVal(i)); err != nil {
				t.Errorf("InsertB %d: %v", i, err)
				return
			}
		}
	})
	wg.Wait()
	pool.SetFlushHook(nil)
	pool.Crash()
	return pool, ledger, flushes.Load()
}

// checkFrontiers reopens a crashed image and checks both claims above.
func checkFrontiers(t *testing.T, pool *pmem.Pool, ledger pmem.Addr, crashAt int64) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("crash at flush %d: %s", crashAt, fmt.Sprintf(format, args...))
	}
	tbl, err := Open(pool)
	if err != nil {
		fail("Open: %v", err)
	}
	tbl.RecoverAll()
	if err := tbl.Verify(); err != nil {
		fail("Verify: %v", err)
	}
	// Blocks never overlap one another, blobs never overlap one another or a
	// block other than the chunk holding them.
	frontier := pool.QuietLoadU64(rootAddr.Add(rootOffAllocNxt))
	var blocks, blobs []span
	add := func(lo pmem.Addr, n uint64, what string) span {
		s := span{uint64(lo), uint64(lo) + n, what}
		if s.hi > frontier {
			fail("%s [%#x, %#x) ends past the persisted frontier %#x", what, s.lo, s.hi, frontier)
		}
		return s
	}
	block := func(lo pmem.Addr, n uint64, what string) {
		s := add(lo, n, what)
		blocks, blobs = append(blocks, s), append(blobs, s)
	}
	v := tbl.cache.view.Load()
	block(v.dir, dirSize(v.depth), "the directory")
	v.eachSegment(func(d *segDesc) {
		block(d.seg, segmentSize, "a segment")
		mir := d.mir.Load()
		for bi := 0; bi < totalBuckets; bi++ {
			m := mir.word(bi, mirBkMeta).Load()
			for slot := 0; slot < slotsPerBucket; slot++ {
				if w0 := mir.recWord(bi, slot, 0).Load(); metaSlotUsed(m, slot) && recIsIndirect(w0) {
					a := recBlobAddr(w0)
					klen, vlen := tbl.vlog.Lens(a)
					blobs = append(blobs, add(a, pmem.BlobHeaderSize+uint64(klen+vlen), "a referenced blob"))
				}
			}
		}
	})
	// Chunks come from the table's bump alone (the free list only ever holds
	// smaller blocks), so the head chunk is the highest.
	if head := pmem.Addr(pool.QuietLoadU64(rootAddr.Add(rootOffVarLog))); !head.IsNull() {
		blocks = append(blocks, add(head, pmem.VarChunkSize, "the log's head chunk"))
	}
	block(ledger, 8*frontierLedgerSlots, "the ledger")
	for i := uint64(0); i < frontierLedgerSlots; i++ {
		if a := pmem.Addr(pool.QuietLoadU64(ledger.Add(8 * i))); !a.IsNull() {
			block(a, frontierBlock, "a published ledger block")
		}
	}

	// Allocate past the crash: table blocks, and blobs that reuse the spans
	// the log sweep reclaimed before they bump.
	for i := 0; i < 4; i++ {
		a, err := tbl.alloc(frontierBlock)
		if err != nil {
			fail("alloc after reopen: %v", err)
		}
		s := span{uint64(a), uint64(a) + frontierBlock, "a new table block"}
		blocks, blobs = append(blocks, s), append(blobs, s)
	}
	for i := frontierBlobs; i < frontierBlobs+24; i++ {
		key := frontierKey(i)
		if err := tbl.InsertB(key, frontierVal(i)); err != nil {
			fail("InsertB after reopen: %v", err)
		}
		a := blobOf(t, tbl, tbl.probeBytes(key))
		blobs = append(blobs, span{uint64(a), uint64(a) + pmem.BlobHeaderSize + uint64(len(key)+3000), "a new blob"})
	}
	for _, set := range [][]span{blocks, blobs} {
		sort.Slice(set, func(i, j int) bool { return set[i].lo < set[j].lo })
		for i := 1; i < len(set); i++ {
			if a, b := set[i-1], set[i]; b.lo < a.hi {
				fail("%s [%#x, %#x) overlaps %s [%#x, %#x)", a.what, a.lo, a.hi, b.what, b.lo, b.hi)
			}
		}
	}
	if err := tbl.Verify(); err != nil {
		fail("Verify after the new allocations: %v", err)
	}
}

// TestFrontierCrashPoints runs in parallel with the split crash rows
// (crash_test.go): like them, it is a long crash sweep that shares no
// package state.
func TestFrontierCrashPoints(t *testing.T) {
	t.Parallel()
	_, _, total := runFrontierHistory(t, 0)
	if total < 500 {
		t.Fatalf("the history flushed only %d times", total)
	}
	for k := int64(1); k <= total; k++ {
		pool, ledger, _ := runFrontierHistory(t, k)
		checkFrontiers(t, pool, ledger, k)
	}
	t.Logf("crashed at each of %d flushes", total)
}

// TestAllocKeepsReusedBlockTail: a reused block larger than the request
// hands out its head and keeps its tail on the free list. A freed depth-12
// directory block (33 024 bytes) serves two segments, the second right
// after the first, and the frontier does not move.
func TestAllocKeepsReusedBlockTail(t *testing.T) {
	tbl := newTestTable(t, 4<<20, Options{InitialDepth: 1})
	defer tbl.Close()
	dir, err := tbl.alloc(dirSize(12))
	if err != nil {
		t.Fatal(err)
	}
	tbl.freePush(dir, dirSize(12))
	frontier := tbl.allocNext
	var segs [2]pmem.Addr
	for i := range segs {
		if segs[i], err = tbl.alloc(segmentSize); err != nil {
			t.Fatal(err)
		}
	}
	if segs[0] != dir || segs[1] != dir.Add(segmentSize) {
		t.Fatalf("segments at %#x and %#x, want %#x and %#x: the freed block's head, then its tail", segs[0], segs[1], dir, dir.Add(segmentSize))
	}
	if tbl.allocNext != frontier {
		t.Fatalf("the frontier moved %d→%d while the freed block had room", frontier, tbl.allocNext)
	}
	if want := (freeSpan{addr: dir.Add(2 * segmentSize), size: allocRound(dirSize(12)) - 2*segmentSize}); len(tbl.freeList) != 1 || tbl.freeList[0] != want {
		t.Fatalf("free list = %+v, want the block's last %d bytes, %+v", tbl.freeList, want.size, want)
	}
}
