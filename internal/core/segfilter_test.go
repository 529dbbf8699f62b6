package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"dash/internal/pmem"
)

// The segment mirror (segfilter.go) is what a running table reads, PM what a
// crash leaves: the two must agree word for word at every quiescent point —
// across splits, directory doublings and crash-recovery rebuilds, and a
// deliberate corruption must be named. Table.Verify is the oracle: it
// compares every bucket table-wide.

// TestMirrorCoherenceAfterSplits grows a table through many splits and at
// least one directory doubling single-threaded, interleaving deletes and
// updates, then requires the mirror to match PM exactly and every surviving
// key to read back through the mirror path.
func TestMirrorCoherenceAfterSplits(t *testing.T) {
	tbl := newTestTable(t, 64<<20, Options{InitialDepth: 1})

	live := map[uint64]uint64{}
	const n = 4 * slotsPerSegment // forces splits and a doubling from depth 1
	for k := uint64(0); k < n; k++ {
		if err := tbl.Insert(k, k*3+1); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		live[k] = k*3 + 1
		switch k % 7 {
		case 3:
			del := k / 2
			if _, ok := live[del]; ok {
				if !tbl.Delete(del) {
					t.Fatalf("delete %d: not found", del)
				}
				delete(live, del)
			}
		case 5:
			upd := k / 3
			if _, ok := live[upd]; ok {
				if ok2, err := tbl.Update(upd, k); err != nil || !ok2 {
					t.Fatalf("update %d: %v %v", upd, ok2, err)
				}
				live[upd] = k
			}
		}
	}
	st := tbl.Stats()
	if st.GlobalDepth <= 1 {
		t.Fatalf("expected the fill to deepen the directory, depth still %d", st.GlobalDepth)
	}
	requireVerified(t, tbl)
	for k, want := range live {
		if v, ok := tbl.Get(k); !ok || v != want {
			t.Fatalf("key %d = %d,%v want %d", k, v, ok, want)
		}
	}
	if st.SegFilterBytes != uint64(st.Segments)*segMirrorBytes {
		t.Fatalf("SegFilterBytes = %d, want %d segments x %d",
			st.SegFilterBytes, st.Segments, segMirrorBytes)
	}
}

// TestMirrorCoherenceConcurrent drives mixed inserts, deletes, updates and
// reads from several goroutines through splits and doublings (this is the
// -race workout for the shadow-seqlock write-through protocol), then
// verifies the quiescent mirror matches PM word for word.
func TestMirrorCoherenceConcurrent(t *testing.T) {
	tbl := newTestTable(t, 64<<20, Options{InitialDepth: 1})

	const workers = 4
	const perWorker = slotsPerSegment + 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			base := w << 32
			for i := uint64(0); i < perWorker; i++ {
				k := base | i
				if err := tbl.Insert(k, k^0x5A5A); err != nil {
					t.Errorf("insert %#x: %v", k, err)
					return
				}
				switch i % 5 {
				case 1:
					tbl.Get(base | (i / 2))
				case 2:
					tbl.Delete(base | (i / 2))
				case 3:
					tbl.Update(base|(i/3), i)
				}
			}
		}(uint64(w))
	}
	wg.Wait()

	requireVerified(t, tbl)
	if s := tbl.Stats(); s.Splits == 0 {
		t.Fatal("fill completed without any split; the test exercised nothing")
	}
}

// TestMirrorPoisonSelfHeal corrupts a key's home bucket in the mirror —
// the silent-false-negative failure mode — and requires Verify to name the
// poisoned bucket, and only it. Nothing at run time second-guesses the mirror
// against PM: a read is served the poisoned miss without a PM line, and a
// writer meeting the bucket would take a used slot for a free one, so the
// mirror's exactness is a contract, checked by Verify at every test table's
// teardown, not a state the table heals itself out of. Putting the words
// back is what makes the table whole again.
func TestMirrorPoisonSelfHeal(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{})

	const key, val = 12345, 999
	if err := tbl.Insert(key, val); err != nil {
		t.Fatal(err)
	}
	pk := tbl.probeU64(key)
	d := tbl.cache.route(pk.parts)
	mir := d.mir.Load()
	_, at, _, _ := mirSegSearch(tbl.vlog, mir, &pk, true)
	b := int(pk.parts.BucketIndex(bucketBits))
	if at.bucket != b {
		t.Fatalf("key %d went to bucket %d, not its home %d", key, at.bucket, b)
	}
	// Zero the home bucket's mirrored bitmap and fingerprints: the mirror
	// now swears the key does not exist, and the negative still validates
	// (depth/pattern claim and route are intact).
	var saved [3]uint64
	for i, w := range []int{mirBkMeta, mirBkFPLo, mirBkFPHi} {
		saved[i] = mir.word(b, w).Swap(0)
	}
	if n := readLines(tbl.pool, func() {
		if _, ok := tbl.Get(key); ok {
			t.Fatal("a poisoned mirror served the key: the test poisoned nothing")
		}
	}); n != 0 {
		t.Fatalf("the poisoned read went to PM for %d lines", n)
	}
	err := tbl.Verify()
	want := fmt.Sprintf("segment %#x bucket %d slot %d: clear in the mirror, but PM holds a record the segment claims (hash %#x)", d.seg, b, at.slot, pk.parts.Hash)
	if err == nil || err.Error() != want {
		t.Fatalf("Verify = %v, want exactly %q", err, want)
	}

	for i, w := range []int{mirBkMeta, mirBkFPLo, mirBkFPHi} {
		mir.word(b, w).Store(saved[i])
	}
	if v, ok := tbl.Get(key); !ok || v != val {
		t.Fatalf("Get after the words are back = %d,%v want %d", v, ok, val)
	}
}

// TestMirrorRebuildAfterCrash runs a randomized op history (fixed seed, both
// inline and variable-length records), crashes the pool, reopens, and
// requires the rebuilt mirrors to (a) match PM word for word and (b) give
// exactly the answers the pre-crash history acknowledges — positives with
// exact values, negatives for deleted and never-inserted keys, all served
// through the mirror path.
func TestMirrorRebuildAfterCrash(t *testing.T) {
	pool, err := pmem.NewPool(pmem.Options{Size: 2 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 1})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	live := map[uint64]uint64{}
	liveVar := map[string]string{}
	for i := 0; i < 3*slotsPerSegment; i++ {
		switch op := rng.Intn(10); {
		case op < 5: // inline insert
			k, v := rng.Uint64()%100000, rng.Uint64()
			if _, ok := live[k]; ok {
				break
			}
			if err := tbl.Insert(k, v); err != nil {
				t.Fatalf("insert: %v", err)
			}
			live[k] = v
		case op < 7: // variable-length insert
			k := fmt.Sprintf("var-key-%d-%d", rng.Intn(5000), rng.Intn(8))
			v := fmt.Sprintf("value-%d", rng.Uint64())
			if _, ok := liveVar[k]; ok {
				break
			}
			if err := tbl.InsertB([]byte(k), []byte(v)); err != nil {
				t.Fatalf("insertB: %v", err)
			}
			liveVar[k] = v
		case op < 8: // delete a live key
			for k := range live {
				if !tbl.Delete(k) {
					t.Fatalf("delete %d: not found", k)
				}
				delete(live, k)
				break
			}
		default: // update a live key
			for k := range live {
				nv := rng.Uint64()
				if ok, err := tbl.Update(k, nv); err != nil || !ok {
					t.Fatalf("update %d: %v %v", k, ok, err)
				}
				live[k] = nv
				break
			}
		}
	}

	pool.Crash()
	tbl2 := openTestTable(t, pool)
	defer tbl2.Close()

	// Mirrors install lazily at first touch; force every segment's
	// recovery before running the quiescent coherence oracle.
	tbl2.RecoverAll()
	requireVerified(t, tbl2)
	before := tbl2.Metrics().Snapshot()
	for k, want := range live {
		if v, ok := tbl2.Get(k); !ok || v != want {
			t.Fatalf("after rebuild: key %d = %d,%v want %d", k, v, ok, want)
		}
	}
	for k, want := range liveVar {
		v, ok := tbl2.GetB([]byte(k))
		if !ok || string(v) != want {
			t.Fatalf("after rebuild: key %q = %q,%v want %q", k, v, ok, want)
		}
	}
	for k := uint64(200000); k < 200100; k++ { // never inserted
		if _, ok := tbl2.Get(k); ok {
			t.Fatalf("after rebuild: phantom key %d", k)
		}
	}
	reads := uint64(len(live) + len(liveVar) + 100)
	if w := tbl2.Metrics().Snapshot().Sub(before); w.Counters["segfilter.hits"] != reads || w.Counters["segfilter.misses"] != 0 {
		t.Fatalf("%d quiescent reads: %d mirror-served, %d retried; want all mirror-served",
			reads, w.Counters["segfilter.hits"], w.Counters["segfilter.misses"])
	}
}

// TestReaderReadCharges pins what a mirror-served read pays for, on a quiet
// table with the cost model off: a Get of an inline record and any miss read
// no PM line at all, and a hit on an indirect record — through Get or
// GetBAppend — reads exactly the lines its blob (header, key, value) spans:
// the probe's one streaming charge, to which extracting the value adds none.
func TestReaderReadCharges(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{})
	defer tbl.Close()
	p := tbl.pool
	// blobLines is the number of cachelines pk's record's blob spans.
	blobLines := func(pk probeKey, vlen int) uint64 {
		return lineSpan(blobOf(t, tbl, pk), pmem.BlobHeaderSize+len(pk.kb)+vlen)
	}

	const n = 300
	for i := 0; i < n; i++ {
		k := uint64(i)
		if err := tbl.Insert(k, k*3); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Insert(k|recIndirectBit, k*5); err != nil { // 8-byte blob
			t.Fatal(err)
		}
		if err := tbl.InsertB(varKey(i, 16+i%100), varVal(i, 1+i%120)); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	for i := 0; i < n; i++ {
		k := uint64(i)
		if got := readLines(p, func() {
			if v, ok := tbl.Get(k); !ok || v != k*3 {
				t.Fatalf("Get(%d) = %d,%v", k, v, ok)
			}
		}); got != 0 {
			t.Fatalf("Get(%d) of an inline record read %d PM lines, want 0", k, got)
		}
		if got := readLines(p, func() {
			if _, ok := tbl.Get(k + 1<<40); ok {
				t.Fatalf("Get(%d) found a key never inserted", k+1<<40)
			}
		}); got != 0 {
			t.Fatalf("Get miss read %d PM lines, want 0", got)
		}

		want := blobLines(tbl.probeU64(k|recIndirectBit), 8)
		if got := readLines(p, func() {
			if v, ok := tbl.Get(k | recIndirectBit); !ok || v != k*5 {
				t.Fatalf("Get(%#x) = %d,%v", k|recIndirectBit, v, ok)
			}
		}); got != want {
			t.Fatalf("Get(%#x) of an indirect record read %d PM lines, its blob spans %d", k|recIndirectBit, got, want)
		}

		kb, vb := varKey(i, 16+i%100), varVal(i, 1+i%120)
		want = blobLines(tbl.probeBytes(kb), len(vb))
		if got := readLines(p, func() {
			var ok bool
			if buf, ok = tbl.GetBAppend(buf[:0], kb); !ok || !bytes.Equal(buf, vb) {
				t.Fatalf("GetBAppend(%x) = %x,%v", kb, buf, ok)
			}
		}); got != want {
			t.Fatalf("GetBAppend of a %d+%d-byte record read %d PM lines, its blob spans %d", len(kb), len(vb), got, want)
		}
	}
}

// TestMirrorDuringSplitMigration parks the first split at its sibling's
// whole-segment persist — the copy done, every bucket lock of the splitting
// segment held, no directory entry flipped — and checks what those locks do
// to the rest of the table. Gets of keys in other segments return, exact,
// and absent keys there miss. A Get and an Insert aimed at the splitting
// segment, started while the split is parked, return only after it is
// released: the Get with the exact value, the Insert with its key in the
// half that owns it after the split. The table then verifies clean.
func TestMirrorDuringSplitMigration(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{InitialDepth: 1})
	defer tbl.Close()

	var (
		parkedOnce       atomic.Bool
		sibling          pmem.Addr // set by the hook before parked closes
		parked, release  = make(chan struct{}), make(chan struct{})
		acked            = make(map[uint64]uint64)
		inserterFinished = make(chan struct{})
	)
	tbl.pool.SetFlushHook(func(a pmem.Addr, n uint64) {
		if n == segmentSize && parkedOnce.CompareAndSwap(false, true) {
			sibling = a
			close(parked)
			select {
			case <-release:
			case <-time.After(splitTestTimeout):
				t.Error("the parked split was never released")
			}
		}
	})
	defer tbl.pool.SetFlushHook(nil)
	go func() {
		defer close(inserterFinished)
		for k := uint64(0); tbl.met.splits.Total() == 0; k++ {
			if err := tbl.Insert(k, k*7+3); err != nil {
				t.Errorf("insert %d: %v", k, err)
				return
			}
			acked[k] = k*7 + 3
		}
	}()
	select {
	case <-parked:
	case <-inserterFinished:
		t.Fatal("the first split never reached its sibling's persist")
	}

	// The inserter is parked inside the publish, so acked is frozen and the
	// channel close orders these reads after its last write. The splitting
	// segment is the one whose owner lock is held.
	var old *segDesc
	tbl.cache.view.Load().eachSegment(func(d *segDesc) {
		if d.owner.TryLock() {
			d.owner.Unlock()
		} else {
			old = d
		}
	})
	if old == nil {
		t.Fatal("no segment's owner lock is held by the parked split")
	}
	l := uint8(old.mir.Load().depth.Load())
	splitting := func(k uint64) bool { return tbl.cache.route(tbl.parts(k)) == old }
	elsewhere, inOld := 0, uint64(0)
	for k, want := range acked {
		if splitting(k) {
			inOld = k
			continue
		}
		if v, ok := tbl.Get(k); !ok || v != want {
			t.Fatalf("mid-split Get(%d) in another segment = %d,%v want %d", k, v, ok, want)
		}
		elsewhere++
	}
	if elsewhere == 0 || !splitting(inOld) {
		t.Fatalf("the history put %d keys in the other segment; want keys on both sides", elsewhere)
	}
	for k := uint64(1 << 60); k < 1<<60+50; k++ {
		if splitting(k) {
			continue
		}
		if _, ok := tbl.Get(k); ok {
			t.Fatalf("mid-split Get of absent key %d found it", k)
		}
	}

	// A fresh key the split moves to the sibling.
	fresh := uint64(1) << 40
	for !splitting(fresh) || !tbl.parts(fresh).DepthBit(l) {
		fresh++
	}
	type getReply struct {
		v  uint64
		ok bool
	}
	got, inserted := make(chan getReply, 1), make(chan error, 1)
	var started sync.WaitGroup
	started.Add(2)
	go func() {
		started.Done()
		v, ok := tbl.Get(inOld)
		got <- getReply{v, ok}
	}()
	go func() {
		started.Done()
		inserted <- tbl.Insert(fresh, 99)
	}()
	started.Wait()
	time.Sleep(50 * time.Millisecond)
	if len(got) != 0 || len(inserted) != 0 {
		t.Errorf("Get(%d) returned: %v, Insert(%d) returned: %v — under the splitting segment's locks", inOld, len(got) != 0, fresh, len(inserted) != 0)
	}
	close(release)
	<-inserterFinished
	if r := <-got; !r.ok || r.v != acked[inOld] {
		t.Errorf("Get(%d) across the split = %d,%v want %d", inOld, r.v, r.ok, acked[inOld])
	}
	if err := <-inserted; err != nil {
		t.Fatalf("Insert(%d) across the split: %v", fresh, err)
	}
	pk := tbl.probeU64(fresh)
	if d := tbl.cache.route(pk.parts); d.seg != sibling {
		t.Errorf("Insert(%d) routes to %#x after the split, want the sibling %#x", fresh, d.seg, sibling)
	}
	if kv, _, ok, _ := mirSegSearch(tbl.vlog, mirrorOf(tbl, sibling), &pk, true); !ok || kv.Value != 99 {
		t.Errorf("Insert(%d) is not in the sibling's half", fresh)
	}
	for k, want := range acked {
		if v, ok := tbl.Get(k); !ok || v != want {
			t.Fatalf("post-split Get(%d) = %d,%v want %d", k, v, ok, want)
		}
	}
	requireVerified(t, tbl)
}

// TestMirrorRecordsNeverStraddleALine pins the layout every probe's cache
// behaviour rests on: a mirrored record's two words share a cacheline. It
// holds because segMirror contains no pointer — the allocator prefixes a
// pointer-carrying object of this size with a type header, which shifts every
// word by 8 bytes and splits each fourth record across two lines (and makes
// the collector scan 17 KB per segment).
func TestMirrorRecordsNeverStraddleALine(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{InitialDepth: 3})
	defer tbl.Close()
	tbl.cache.view.Load().eachSegment(func(d *segDesc) {
		mir := d.mir.Load()
		if off := uintptr(unsafe.Pointer(mir.recWord(0, 0, 0))) % 16; off != 0 {
			t.Errorf("mirror %p: record words start %d bytes off a 16-byte boundary", mir, off)
		}
	})
}

// TestMirrorBucketIsOneBlock pins the layout a probe's reads rest on: on a
// live mirror every bucket is one 256-byte block, 256-aligned and so within
// one 4 KiB page, its header words sharing the block's first cacheline with
// slots 0 and 1 and slots 2..5 filling the next line, so a probe's header
// and the records it reads come from one block. It also pins the mirror's
// size, which core.segfilter_bytes is measured in, and the allocator size
// class it is served from, which heap_mb is, and whose 256-byte object
// alignment the blocks inherit: 16 912 bytes, in the 18 432-byte class.
func TestMirrorBucketIsOneBlock(t *testing.T) {
	if segMirrorBytes != 16912 {
		t.Fatalf("a mirror is %d bytes, want 16912: 66 blocks of 32 B of header and 14 × 16 B of records, the claim", segMirrorBytes)
	}
	const class = 18432
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ci := 0 // the smallest size class a mirror fits
	for ci < len(before.BySize)-1 && uint64(before.BySize[ci].Size) < segMirrorBytes {
		ci++
	}
	if got := before.BySize[ci].Size; got != class || uint64(got) < segMirrorBytes {
		t.Fatalf("a %d-byte mirror is served from the %d-byte size class, want the %d-byte one", segMirrorBytes, got, class)
	}
	held := make([]*segMirror, 64)
	for i := range held {
		held[i] = &segMirror{}
	}
	runtime.ReadMemStats(&after)
	if n := after.BySize[ci].Mallocs - before.BySize[ci].Mallocs; n < uint64(len(held)) {
		t.Fatalf("%d mirrors allocated, but the %d-byte class counted %d allocations", len(held), class, n)
	}
	runtime.KeepAlive(held)
	const block, page = 256, 4096
	addr := func(w *atomic.Uint64) uintptr { return uintptr(unsafe.Pointer(w)) }
	tbl := newTestTable(t, 16<<20, Options{InitialDepth: 3})
	defer tbl.Close()
	tbl.cache.view.Load().eachSegment(func(d *segDesc) {
		mir := d.mir.Load()
		for b := 0; b < totalBuckets; b++ {
			first, last := addr(mir.word(b, mirBkVersion)), addr(mir.recWord(b, slotsPerBucket-1, 1))
			if first%block != 0 || last-first != block-8 {
				t.Fatalf("mirror %p bucket %d: words %#x..%#x, want one %d-aligned %d-byte block", mir, b, first, last, block, block)
			}
			if first/page != last/page {
				t.Fatalf("mirror %p bucket %d: the block spans pages", mir, b)
			}
			line := func(w *atomic.Uint64) uintptr { return (addr(w) - first) / pmem.CachelineSize }
			for off := 0; off < mirHdrWords; off++ {
				if line(mir.word(b, off)) != 0 {
					t.Fatalf("mirror %p bucket %d: header word %d is off the block's first line", mir, b, off)
				}
			}
			for slot := 0; slot < 6; slot++ {
				if got, want := line(mir.recWord(b, slot, 0)), uintptr(min(slot/2, 1)); got != want || line(mir.recWord(b, slot, 1)) != want {
					t.Fatalf("mirror %p bucket %d slot %d: record on line %d of its block, want %d", mir, b, slot, got, want)
				}
			}
		}
	})

	mir := &segMirror{}
	seen := make(map[*atomic.Uint64]bool)
	for bi := 0; bi < totalBuckets; bi++ {
		for off := 0; off < mirHdrWords; off++ {
			seen[mir.word(bi, off)] = true
		}
		for slot := 0; slot < slotsPerBucket; slot++ {
			seen[mir.recWord(bi, slot, 0)], seen[mir.recWord(bi, slot, 1)] = true, true
		}
	}
	if n := uint64(len(seen)) * 8; n+16 != segMirrorBytes {
		t.Fatalf("the accessors reach %d distinct bytes of a %d-byte mirror, want all but the 16-byte claim", n, segMirrorBytes)
	}
}

// TestStashProbesMeter: segfilter.stash_probes counts the reads whose probe
// entered the stash, which a read does only when its home bucket's stash
// count is non-zero. A miss in a home whose count is 0 leaves the meter at
// 0; a miss in a home with stash records adds one, as does a hit in the
// stash; a hit in the bucket pair adds nothing.
func TestStashProbesMeter(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{})
	defer tbl.Close()
	const n = 20000
	for k := uint64(0); k < n; k++ {
		if err := tbl.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	probes := tbl.filters.stashProbes.Total
	if got := probes(); got != 0 {
		t.Fatalf("inserts moved the read-side meter to %d", got)
	}
	// probe classifies key k without a metered read: whether its home counts
	// stash records, and where the probe finds it.
	probe := func(k uint64) (counted bool, loc recLoc) {
		pk := tbl.probeU64(k)
		mir := tbl.mirror(tbl.cache.route(pk.parts))
		b, _ := homePair(pk.parts)
		_, loc, _, _ = mirSegSearch(tbl.vlog, mir, &pk, false)
		return metaStashCount(mir.word(b, mirBkMeta).Load()) > 0, loc
	}
	var uncounted, counted []uint64 // absent keys by their home's count
	for k := uint64(n); len(uncounted) < 100 || len(counted) == 0; k++ {
		if c, _ := probe(k); c {
			counted = append(counted, k)
		} else {
			uncounted = append(uncounted, k)
		}
	}
	for _, k := range uncounted {
		if _, ok := tbl.Get(k); ok {
			t.Fatalf("absent key %d found", k)
		}
	}
	if got := probes(); got != 0 {
		t.Fatalf("%d misses in homes with no stash records: stash_probes = %d, want 0", len(uncounted), got)
	}
	if _, ok := tbl.Get(counted[0]); ok {
		t.Fatal("absent key found")
	}
	if got := probes(); got != 1 {
		t.Fatalf("one miss in a home with stash records: stash_probes = %d, want 1", got)
	}
	var inPair, inStash uint64
	for k := uint64(1); k < n; k++ {
		if c, loc := probe(k); c && loc.inStash() {
			inStash = k
		} else if c {
			inPair = k
		}
	}
	if inPair == 0 || inStash == 0 {
		t.Fatal("the homes with stash records hold no pair record or no stash record")
	}
	if _, ok := tbl.Get(inPair); !ok || probes() != 1 {
		t.Fatalf("a hit in the pair: found %v, stash_probes = %d, want 1", ok, probes())
	}
	if _, ok := tbl.Get(inStash); !ok || probes() != 2 {
		t.Fatalf("a hit in the stash: found %v, stash_probes = %d, want 2", ok, probes())
	}
}
