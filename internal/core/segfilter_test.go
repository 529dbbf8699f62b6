package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
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
	b := int(pk.parts.BucketIndex(bucketBits))
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
	want := fmt.Sprintf("segment %#x bucket %d: mirror diverges from PM", d.seg, b)
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
		return lineSpan(blobOf(t, tbl, pk), pmem.BlobHeaderSize+pk.keyLen()+vlen)
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

// TestMirrorDuringSplitMigration pauses the first split mid-migration (the
// PR 4 assist-test pattern) and probes every acknowledged key through the
// mirror path while half the old segment is copied and the sibling is
// unpublished: the sibling's mirror is installed before the split marker, so
// reads must stay exact throughout. After release, the published mirrors
// must match PM.
func TestMirrorDuringSplitMigration(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{InitialDepth: 1})

	acked := make(map[uint64]uint64)
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
				t.Error("prober never released the paused split")
			}
		})
	}

	proberDone := make(chan struct{})
	go func() {
		defer close(proberDone)
		<-paused
		// The inserter is parked inside the hook, so acked is frozen and the
		// channel close orders these reads after its last write.
		for k, want := range acked {
			if v, ok := tbl.Get(k); !ok || v != want {
				t.Errorf("mid-split mirror probe: key %d = %d,%v want %d", k, v, ok, want)
				break
			}
		}
		// Absent keys must also miss cleanly mid-split.
		for k := uint64(1 << 60); k < 1<<60+50; k++ {
			if _, ok := tbl.Get(k); ok {
				t.Errorf("mid-split mirror probe: phantom key %d", k)
				break
			}
		}
		close(release)
	}()

	for k := uint64(0); k < 3*slotsPerSegment; k++ {
		if err := tbl.Insert(k, k*7+3); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		acked[k] = k*7 + 3
	}
	select {
	case <-proberDone:
	case <-time.After(splitTestTimeout):
		t.Fatal("prober did not finish")
	}

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
