package core

import (
	"bytes"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"testing"

	"dash/internal/pmem"
)

// Tests for the lazy O(directory) recovery protocol (lazyrec.go): the clean
// fast path, the crash path's first-touch gates under concurrency, and the
// single-use clean marker.

// withLazyGates disables the background recovery driver for the duration of
// one test, so segments stay unrecovered until the test itself touches them.
// Tests in this package run sequentially, so flipping the package-level knob
// is safe.
func withLazyGates(t *testing.T) {
	t.Helper()
	disableBackgroundRecovery.Store(true)
	t.Cleanup(func() { disableBackgroundRecovery.Store(false) })
}

// reopenImage restarts a durable pool image, modeling power-up.
func reopenImage(t *testing.T, img []byte) (*Table, *pmem.Pool) {
	t.Helper()
	pool, err := pmem.OpenSnapshot(img, pmem.Options{TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	return openTestTable(t, pool), pool
}

func lazyVarKey(i int) []byte { return []byte(fmt.Sprintf("lazy-var-key-%04d", i)) }
func lazyVarVal(i int) []byte { return []byte(fmt.Sprintf("lazy-var-val-%d-%d", i, i*31)) }

// TestLazyCleanShutdownFastPath: after Close persisted the clean marker and
// the count, Open must restore Count straight from the root — before any
// segment is touched — and leave every segment pending; reads then recover
// segments through the gates, and RecoverAll finishes the rest.
func TestLazyCleanShutdownFastPath(t *testing.T) {
	pool, err := pmem.NewPool(pmem.Options{Size: 2 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	verifyAtTeardown(t, tbl)
	const nU, nV = 2000, 300
	for k := uint64(0); k < nU; k++ {
		if err := tbl.Insert(k, k*5+1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nV; i++ {
		if err := tbl.InsertB(lazyVarKey(i), lazyVarVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 200; k++ { // deletes so count != inserts
		if !tbl.Delete(k * 7) {
			t.Fatalf("delete %d", k*7)
		}
	}
	want := tbl.Count()
	tbl.Close()
	img := pool.Snapshot()

	withLazyGates(t)
	tbl2, pool2 := reopenImage(t, img)
	st := tbl2.Stats()
	if st.Count != want {
		t.Fatalf("clean open Count = %d, want %d (root-restored, no segment touched)", st.Count, want)
	}
	if pending := tbl2.recoveryPending(); pending != int64(st.Segments) || st.Segments < 2 {
		t.Fatalf("pending = %d, want every one of %d segments", pending, st.Segments)
	}
	openNS := tbl2.met.recoveryOpenNS.Total()
	if openNS == 0 {
		t.Fatal("recovery.open_ns not recorded")
	}
	for k := uint64(0); k < nU; k++ { // reads through the first-touch gates
		v, ok := tbl2.Get(k)
		if k%7 == 0 && k/7 < 200 {
			if ok {
				t.Fatalf("deleted key %d resurrected", k)
			}
			continue
		}
		if !ok || v != k*5+1 {
			t.Fatalf("key %d = %d,%v want %d", k, v, ok, k*5+1)
		}
	}
	tbl2.RecoverAll()
	if pending := tbl2.recoveryPending(); pending != 0 {
		t.Fatalf("still %d pending after RecoverAll", pending)
	}
	if fullNS := tbl2.met.recoveryFullNS.Total(); fullNS < openNS {
		t.Fatalf("recovery.full_ns %d < recovery.open_ns %d", fullNS, openNS)
	}
	if got := tbl2.Count(); got != want {
		t.Fatalf("recovered Count = %d, want %d", got, want)
	}
	for i := 0; i < nV; i++ {
		v, ok := tbl2.GetB(lazyVarKey(i))
		if !ok || !bytes.Equal(v, lazyVarVal(i)) {
			t.Fatalf("var key %d = %q,%v", i, v, ok)
		}
	}
	requireVerified(t, tbl2)

	// The clean marker is single-use: Open consumed (cleared and persisted)
	// it, so crashing now and reopening must take the crash path and still
	// converge to the same state.
	pool2.Crash()
	tbl3, _ := reopenImage(t, pool2.Snapshot())
	tbl3.RecoverAll()
	if got := tbl3.Count(); got != want {
		t.Fatalf("post-marker-consumption crash reopen Count = %d, want %d", got, want)
	}
	tbl3.Close()
}

// TestLazyFirstTouchConcurrent is the -race workout for the first-touch
// gate: a crash image is reopened with the background driver disabled, then
// 8 goroutines race Get/Insert/Delete/Update onto the same unrecovered
// segments. Each segment must recover exactly once (the lazy.segments
// counter equals the open-time segment count), no acknowledged record may be
// lost or duplicated, every read must be mirror-served — segfilter.hits grows
// by exactly the number of Gets: a retry after a miss adds a miss, never a
// second hit, and there is no other way out of searchOpt — and the mirrors
// must be coherent after the gates release.
func TestLazyFirstTouchConcurrent(t *testing.T) {
	pool, err := pmem.NewPool(pmem.Options{Size: 2 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	verifyAtTeardown(t, tbl)
	const nOld = 2*slotsPerSegment + 300
	const nVar = 200
	for k := uint64(0); k < nOld; k++ {
		if err := tbl.Insert(k, k*7+3); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nVar; i++ {
		if err := tbl.InsertB(lazyVarKey(i), lazyVarVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	img := pool.Snapshot() // no Close: crash-path image

	withLazyGates(t)
	tbl2, _ := reopenImage(t, img)
	segs0 := tbl2.Stats().Segments
	if segs0 < 3 {
		t.Fatalf("only %d segments; the gate race needs several", segs0)
	}
	if got := tbl2.recoveryPending(); got != int64(segs0) {
		t.Fatalf("pending = %d, want %d", got, segs0)
	}

	// Old key k's fate is owned by worker k%workers: k%3==0 deleted,
	// k%3==1 updated to k*7+4, k%3==2 left alone. Non-owners read the key
	// concurrently and must see a state consistent with that fate. Every
	// worker also inserts fresh keys, forcing splits to race the gates.
	const workers = 8
	const freshPerWorker = 150
	hits0 := tbl2.filters.hits.Total()
	var gets atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			var reads uint64
			defer func() { gets.Add(reads) }()
			for k := uint64(0); k < nOld; k++ {
				old, upd := k*7+3, k*7+4
				if k%workers == w {
					switch k % 3 {
					case 0:
						if !tbl2.Delete(k) {
							t.Errorf("owner delete %d: not found", k)
							return
						}
					case 1:
						if ok, err := tbl2.Update(k, upd); err != nil || !ok {
							t.Errorf("owner update %d: %v %v", k, ok, err)
							return
						}
					default:
						reads++
						if v, ok := tbl2.Get(k); !ok || v != old {
							t.Errorf("owner get %d = %d,%v want %d", k, v, ok, old)
							return
						}
					}
					continue
				}
				reads++
				v, ok := tbl2.Get(k)
				switch k % 3 {
				case 0: // racing a delete: present-with-old or absent
					if ok && v != old {
						t.Errorf("key %d mid-delete = %d, want %d or absent", k, v, old)
						return
					}
				case 1: // racing an update: old or new, never absent
					if !ok || (v != old && v != upd) {
						t.Errorf("key %d mid-update = %d,%v want %d or %d", k, v, ok, old, upd)
						return
					}
				default:
					if !ok || v != old {
						t.Errorf("key %d = %d,%v want %d", k, v, ok, old)
						return
					}
				}
				if k < nVar {
					reads++
					b, okB := tbl2.GetB(lazyVarKey(int(k)))
					if !okB || !bytes.Equal(b, lazyVarVal(int(k))) {
						t.Errorf("var key %d = %q,%v", k, b, okB)
						return
					}
				}
			}
			base := uint64(1<<40) | (w << 20)
			for i := uint64(0); i < freshPerWorker; i++ {
				if err := tbl2.Insert(base|i, base+i); err != nil {
					t.Errorf("fresh insert %#x: %v", base|i, err)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := tbl2.filters.hits.Total() - hits0; got != gets.Load() {
		t.Fatalf("%d Gets raced the gates, %d were mirror-served", gets.Load(), got)
	}
	tbl2.RecoverAll()

	// Exactly-once recovery: every open-time segment through the gate once;
	// split siblings born after Open are never counted.
	if got := tbl2.Metrics().Snapshot().Counters["recovery.lazy.segments"]; got != uint64(segs0) {
		t.Fatalf("recovery.lazy.segments = %d, want exactly %d", got, segs0)
	}
	if got := tbl2.recoveryPending(); got != 0 {
		t.Fatalf("%d segments still pending", got)
	}

	deleted := int64(0)
	for k := uint64(0); k < nOld; k++ {
		v, ok := tbl2.Get(k)
		switch k % 3 {
		case 0:
			if ok {
				t.Fatalf("deleted key %d survived as %d", k, v)
			}
			deleted++
		case 1:
			if !ok || v != k*7+4 {
				t.Fatalf("updated key %d = %d,%v want %d", k, v, ok, k*7+4)
			}
		default:
			if !ok || v != k*7+3 {
				t.Fatalf("key %d = %d,%v want %d", k, v, ok, k*7+3)
			}
		}
	}
	for w := uint64(0); w < workers; w++ {
		base := uint64(1<<40) | (w << 20)
		for i := uint64(0); i < freshPerWorker; i++ {
			if v, ok := tbl2.Get(base | i); !ok || v != base+i {
				t.Fatalf("fresh key %#x = %d,%v", base|i, v, ok)
			}
		}
	}
	wantCount := int64(nOld) - deleted + int64(nVar) + workers*freshPerWorker
	if got := tbl2.Count(); got != wantCount {
		t.Fatalf("Count = %d, want %d (ghost or duplicate slots)", got, wantCount)
	}
}

// TestLazyCloseAfterCrashOpen: Close on a lazily opened table must force
// full recovery and persist the count + clean marker, so the next reopen
// takes the clean fast path with the exact count.
func TestLazyCloseAfterCrashOpen(t *testing.T) {
	pool, err := pmem.NewPool(pmem.Options{Size: 2 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	verifyAtTeardown(t, tbl)
	const n = 800
	for k := uint64(0); k < n; k++ {
		if err := tbl.Insert(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	img := pool.Snapshot() // crash image

	withLazyGates(t)
	tbl2, pool2 := reopenImage(t, img)
	tbl2.Close() // forces RecoverAll, then persists count + clean marker

	tbl3, _ := reopenImage(t, pool2.Snapshot())
	if got := tbl3.Stats().Count; got != n {
		t.Fatalf("clean reopen Count = %d, want %d", got, n)
	}
	for k := uint64(0); k < n; k += 97 {
		if v, ok := tbl3.Get(k); !ok || v != k+1 {
			t.Fatalf("key %d = %d,%v", k, v, ok)
		}
	}
	tbl3.Close()
}

// TestReopenAfterSplitCrashServesWrites: two images reopen — a crash image
// taken at a split's sibling persist, and the image a clean Close leaves. On
// each reopened table every kind of write, further splits included, must
// complete and leave a table that verifies, with the mirrors counting what
// Count does.
func TestReopenAfterSplitCrashServesWrites(t *testing.T) {
	pool, err := pmem.NewPool(pmem.Options{Size: 2 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	var crashImg []byte
	pool.SetFlushHook(func(_ pmem.Addr, n uint64) {
		if crashImg == nil && n == segmentSize && tbl.met.splits.Total() >= 2 {
			crashImg = pool.Snapshot()
		}
	})
	acked := make(map[uint64]uint64)
	for k := uint64(0); crashImg == nil; k++ {
		if err := tbl.Insert(k, k+1); err != nil {
			t.Fatal(err)
		}
		if crashImg == nil {
			acked[k] = k + 1
		}
	}
	pool.SetFlushHook(nil)
	cleanAcked := maps.Clone(acked)
	for k := uint64(1) << 36; k < 1<<36+500; k++ {
		if err := tbl.Insert(k, k+1); err != nil {
			t.Fatal(err)
		}
		cleanAcked[k] = k + 1
	}
	tbl.Close()

	for _, c := range []struct {
		name  string
		img   []byte
		acked map[uint64]uint64
	}{{"crash inside a split", crashImg, acked}, {"clean", pool.Snapshot(), cleanAcked}} {
		t.Run(c.name, func(t *testing.T) {
			p, err := pmem.OpenSnapshot(c.img, pmem.Options{})
			if err != nil {
				t.Fatal(err)
			}
			re, err := Open(p)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			for k, v := range c.acked {
				if ok, err := re.Update(k, v+1); !ok || err != nil {
					t.Fatalf("Update(%d) = %v, %v", k, ok, err)
				}
				if k%3 == 0 && !re.Delete(k) {
					t.Fatalf("Delete(%d) reported missing", k)
				}
			}
			splits := re.met.splits.Total()
			for k := uint64(1) << 32; re.met.splits.Total() < splits+4; k++ {
				if err := re.Insert(k, k); err != nil {
					t.Fatalf("Insert(%d): %v", k, err)
				}
			}
			for k, v := range c.acked {
				if got, ok := re.Get(k); ok != (k%3 != 0) || (ok && got != v+1) {
					t.Fatalf("Get(%d) = %d,%v", k, got, ok)
				}
			}
			re.RecoverAll()
			requireVerified(t, re)
			if st := re.Stats(); st.Records != re.Count() {
				t.Fatalf("the mirrors hold %d records, Count is %d", st.Records, re.Count())
			}
		})
	}
}

// TestFirstTouchDeletesDanglingBlobSlot: a crash image whose slot has bit
// 63 set but names no blob the log holds — past the pool, outside every
// chunk, past the head chunk's frontier — reopens and recovers: the
// duplicate sweep does not dereference the address, it deletes the slot
// (word 0 persisted zero) and counts it in recovery.corrupt_slots, and
// the table verifies with the key absent and every other record intact.
func TestFirstTouchDeletesDanglingBlobSlot(t *testing.T) {
	withLazyGates(t)
	pool, err := pmem.NewPool(pmem.Options{Size: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := tbl.InsertB(lazyVarKey(i), lazyVarVal(i)); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Insert(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	const victim = 7
	pk := tbl.probeBytes(lazyVarKey(victim))
	d := tbl.cache.route(pk.parts)
	kv, loc, found, _ := mirSegSearch(tbl.vlog, tbl.mirror(d), &pk, false)
	if !found || !recIsIndirect(kv.Key) {
		t.Fatalf("key %d: found %v, word 0 %#x", victim, found, kv.Key)
	}
	ra := slotAddr(d.seg, loc.bucket, loc.slot)
	img := pool.Snapshot() // the table was never closed: a crash image
	head := pmem.Addr(pool.QuietLoadU64(rootAddr.Add(rootOffVarLog)))
	frontier := pmem.Addr(pool.QuietLoadU64(head.Add(16))) // the chunk header's word 2

	for _, c := range []struct {
		name string
		blob pmem.Addr
	}{
		{"past the pool", pmem.Addr(pool.Size())},
		{"outside every chunk", d.seg},
		{"past the head chunk's frontier", frontier.Add(pmem.CachelineSize)},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, err := pmem.OpenSnapshot(img, pmem.Options{})
			if err != nil {
				t.Fatal(err)
			}
			p.QuietStoreU64(ra, recPack(c.blob, len(lazyVarKey(victim))))
			// Not openTestTable: its teardown would wait forever on a first
			// touch that panicked.
			re, err := Open(p)
			if err != nil {
				t.Fatal(err)
			}
			re.RecoverAll()
			requireVerified(t, re)
			if got := re.met.corruptSlots.Total(); got != 1 {
				t.Fatalf("recovery.corrupt_slots = %d, want 1", got)
			}
			if w0 := p.QuietLoadU64(ra); w0 != 0 {
				t.Fatalf("the slot's word 0 is %#x, want it deleted", w0)
			}
			if _, ok := re.GetB(lazyVarKey(victim)); ok {
				t.Fatalf("key %d found through a slot naming %#x", victim, c.blob)
			}
			for i := 0; i < n; i++ {
				if v, ok := re.GetB(lazyVarKey(i)); i != victim && (!ok || !bytes.Equal(v, lazyVarVal(i))) {
					t.Fatalf("GetB(%d) = %q, %v", i, v, ok)
				}
				if v, ok := re.Get(uint64(i)); !ok || v != uint64(i) {
					t.Fatalf("Get(%d) = %d, %v", i, v, ok)
				}
			}
			if got := re.Count(); got != 2*n-1 {
				t.Fatalf("Count = %d, want %d", got, 2*n-1)
			}
			requireVerified(t, re)
			re.Close()
		})
	}
}

// TestOpenReadsDirectoryOnce pins what Open reads of a crash image holding
// only inline records, at two directory depths g, each just past a doubling
// so that the directory has more entries than segments: one line per
// directory entry, read once by the reconcile that also builds the view; one
// header line per segment, its claim; and k = 8 more lines — five root words
// Open checks (magic, format, seed, allocation frontier, clean marker), the
// root's directory pointer and the directory's depth word, and the record
// log's head pointer, which names no chunk in an image without blobs. A view
// built by a second pass over the directory would read each entry twice.
func TestOpenReadsDirectoryOnce(t *testing.T) {
	withLazyGates(t) // the background driver would read segments during the window
	pool, err := pmem.NewPool(pmem.Options{Size: 8 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[uint64]uint64)
	next := uint64(0)
	for _, g := range []uint8{4, 6} {
		growTo(t, tbl, g, &next, acked)
		segs := tbl.Stats().Segments
		if segs >= 1<<g {
			t.Fatalf("depth %d: %d segments, want fewer than the %d entries", g, segs, 1<<g)
		}
		img := openImage(t, pool.Snapshot()) // the durable image, never closed
		before := img.Stats()
		re := openTestTable(t, img)
		const k = 8
		if got, want := img.Stats().Sub(before).ReadLines, uint64(1)<<g+uint64(segs)+k; got != want {
			t.Errorf("depth %d, %d segments: Open read %d lines, want 2^%d + %d + %d = %d", g, segs, got, g, segs, k, want)
		}
		re.RecoverAll()
		requireVerified(t, re)
	}
	verifyAtTeardown(t, tbl)
}
