package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"dash/internal/pmem"
)

// corruptible builds a table a test may corrupt on purpose — so nothing
// verifies it at teardown — grown past several splits from four segments,
// with inline and variable-length records.
func corruptible(t *testing.T) *Table {
	t.Helper()
	pool, err := pmem.NewPool(pmem.Options{Size: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 3000; k++ {
		if err := tbl.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if err := tbl.InsertB(varKey(i, 24), varVal(i, 40)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// setWord stores v to the PM word at a and to its mirror word m, quietly.
func setWord(tbl *Table, a pmem.Addr, m *atomic.Uint64, v uint64) {
	tbl.pool.QuietStoreU64(a, v)
	m.Store(v)
}

// slotWhere returns the first used slot, in view order, for which ok holds.
func slotWhere(t *testing.T, tbl *Table, ok func(d *segDesc, bi, slot int, kv pmem.KV) bool) (*segDesc, int, int) {
	t.Helper()
	v := tbl.cache.view.Load()
	for i := range v.entries {
		d := v.entries[i].Load()
		mir := d.mir.Load()
		for bi := 0; bi < totalBuckets; bi++ {
			for slot := 0; slot < slotsPerBucket; slot++ {
				if metaSlotUsed(mir.word(bi, mirBkMeta).Load(), slot) && ok(d, bi, slot, mir.rec(bi, slot)) {
					return d, bi, slot
				}
			}
		}
	}
	t.Fatal("the table holds no slot the corruption needs")
	return nil, 0, 0
}

// putRecord stores kv into a free slot of bucket bi of d's segment, in PM and
// mirror alike, quietly and outside every protocol: the record's words, and
// in the mirror, the only place that keeps them, its bitmap bit and its
// fingerprint.
func putRecord(t *testing.T, tbl *Table, d *segDesc, bi int, kv pmem.KV) {
	t.Helper()
	mir, ba := d.mir.Load(), segBucket(d.seg, bi)
	m := mir.word(bi, mirBkMeta).Load()
	slot := metaFirstFree(m)
	if slot < 0 {
		t.Fatalf("bucket %d of segment %#x is full", bi, d.seg)
	}
	lo, hi := fpSet(mir.word(bi, mirBkFPLo).Load(), mir.word(bi, mirBkFPHi).Load(), slot, recSplitParts(kv, tbl.seed).FP)
	ra := recordAddr(ba, slot)
	setWord(tbl, ra, mir.recWord(bi, slot, 0), kv.Key)
	setWord(tbl, ra.Add(8), mir.recWord(bi, slot, 1), kv.Value)
	mir.word(bi, mirBkFPLo).Store(lo)
	mir.word(bi, mirBkFPHi).Store(hi)
	mir.word(bi, mirBkMeta).Store(metaSetSlot(m, slot))
}

// moveRecord moves the record in slot of bucket bi to bucket to, PM and
// mirror alike: the slot it leaves is empty in both.
func moveRecord(t *testing.T, tbl *Table, d *segDesc, bi, slot, to int) {
	t.Helper()
	mir := d.mir.Load()
	putRecord(t, tbl, d, to, mir.rec(bi, slot))
	tbl.pool.QuietStoreU64(recordAddr(segBucket(d.seg, bi), slot), 0)
	mir.word(bi, mirBkMeta).Store(metaClearSlot(mir.word(bi, mirBkMeta).Load(), slot))
}

// freeSlotWhere returns the first slot, in view order, clear in its mirror
// for which ok holds, after inserting keys until one more split has left
// stale slots behind.
func freeSlotWhere(t *testing.T, tbl *Table, ok func(d *segDesc, bi, slot int) bool) (*segDesc, int, int) {
	t.Helper()
	for k, splits := uint64(1)<<40, tbl.met.splits.Total(); tbl.met.splits.Total() == splits; k++ {
		if err := tbl.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	v := tbl.cache.view.Load()
	for i := range v.entries {
		d := v.entries[i].Load()
		mir := d.mir.Load()
		for bi := 0; bi < totalBuckets; bi++ {
			for slot := 0; slot < slotsPerBucket; slot++ {
				if !metaSlotUsed(mir.word(bi, mirBkMeta).Load(), slot) && ok(d, bi, slot) {
					return d, bi, slot
				}
			}
		}
	}
	t.Fatal("the table holds no free slot the corruption needs")
	return nil, 0, 0
}

func normalSlot(_ *segDesc, bi, _ int, _ pmem.KV) bool { return bi < normalBuckets }

func indirectSlot(_ *segDesc, _, _ int, kv pmem.KV) bool { return recIsIndirect(kv.Key) }

// TestVerifyNamesEachCorruption breaks one invariant per row — in PM and
// mirror alike, through quiet stores, so that only the clause under test can
// see it — and requires Verify to name it and nothing else. The last row
// requires that Verify moves no PM traffic counter.
func TestVerifyNamesEachCorruption(t *testing.T) {
	rows := []struct {
		name, want string
		corrupt    func(t *testing.T, tbl *Table)
	}{
		{"flipped fingerprint", "fingerprint", func(t *testing.T, tbl *Table) {
			d, bi, slot := slotWhere(t, tbl, normalSlot)
			mir := d.mir.Load()
			lo, hi := mir.word(bi, mirBkFPLo).Load(), mir.word(bi, mirBkFPHi).Load()
			lo, hi = fpSet(lo, hi, slot, fpGet(lo, hi, slot)^0xFF)
			mir.word(bi, mirBkFPLo).Store(lo)
			mir.word(bi, mirBkFPHi).Store(hi)
		}},
		{"record in a segment that does not claim it", "is not claimed by the segment", func(t *testing.T, tbl *Table) {
			d, bi, slot := slotWhere(t, tbl, normalSlot)
			kv := d.mir.Load().rec(bi, slot)
			b, _ := homePair(recSplitParts(kv, tbl.seed))
			other, _, _ := slotWhere(t, tbl, func(c *segDesc, _, _ int, _ pmem.KV) bool {
				return c.seg != d.seg && bucketFreeSlots(c.mir.Load(), b) > 0
			})
			putRecord(t, tbl, other, b, kv)
			tbl.count.Add(1)
		}},
		{"record outside its home pair", "outside its home pair", func(t *testing.T, tbl *Table) {
			d, bi, slot := slotWhere(t, tbl, normalSlot)
			moveRecord(t, tbl, d, bi, slot, (bi+8)%normalBuckets)
		}},
		{"duplicated key", "appears twice", func(t *testing.T, tbl *Table) {
			d, bi, slot := slotWhere(t, tbl, func(d *segDesc, bi, _ int, _ pmem.KV) bool {
				return bi < normalBuckets && bucketFreeSlots(d.mir.Load(), bi) > 0
			})
			putRecord(t, tbl, d, bi, d.mir.Load().rec(bi, slot))
			tbl.count.Add(1)
		}},
		{"under-counted home", "stash count", func(t *testing.T, tbl *Table) {
			// A record moved into the stash that its home does not count:
			// a probe that finds the count at zero skips the stash.
			d, bi, slot := slotWhere(t, tbl, func(d *segDesc, bi, _ int, _ pmem.KV) bool {
				return bi < normalBuckets && bucketFreeSlots(d.mir.Load(), normalBuckets) > 0
			})
			moveRecord(t, tbl, d, bi, slot, normalBuckets)
		}},
		{"over-counted home", "stash count", func(t *testing.T, tbl *Table) {
			d, bi, _ := slotWhere(t, tbl, normalSlot)
			bucketAddStash(d.mir.Load(), bi, +1)
		}},
		{"PM record word other than the mirror's", "mirror diverges from PM", func(t *testing.T, tbl *Table) {
			d, bi, slot := slotWhere(t, tbl, normalSlot)
			a := recordAddr(segBucket(d.seg, bi), slot).Add(8)
			tbl.pool.QuietStoreU64(a, tbl.pool.QuietLoadU64(a)+1)
		}},
		{"mirror slot clear in PM", "set in the mirror, clear in PM", func(t *testing.T, tbl *Table) {
			// A bit set in the mirror over a slot that was never written:
			// the record words agree, zero in both.
			d, bi, slot := freeSlotWhere(t, tbl, func(d *segDesc, bi, slot int) bool {
				return bi < normalBuckets && !staleSlot(tbl, d, bi, slot) && d.mir.Load().rec(bi, slot) == pmem.KV{}
			})
			w := d.mir.Load().word(bi, mirBkMeta)
			w.Store(metaSetSlot(w.Load(), slot))
		}},
		{"mirror slot with word 0 zero in PM", "word 0 is zero", func(t *testing.T, tbl *Table) {
			// A delete that reached PM alone.
			d, bi, slot := slotWhere(t, tbl, normalSlot)
			tbl.pool.QuietStoreU64(recordAddr(segBucket(d.seg, bi), slot), 0)
		}},
		{"stale slot holding a record the segment claims", "clear in the mirror, but PM holds a record the segment claims", func(t *testing.T, tbl *Table) {
			// A stale slot a split left, whose PM words became those of a
			// record the segment claims.
			d, bi, slot := freeSlotWhere(t, tbl, func(d *segDesc, bi, slot int) bool { return staleSlot(tbl, d, bi, slot) })
			_, ubi, uslot := slotWhere(t, tbl, func(c *segDesc, _, _ int, _ pmem.KV) bool { return c == d })
			kv, ra := d.mir.Load().rec(ubi, uslot), recordAddr(segBucket(d.seg, bi), slot)
			tbl.pool.QuietStoreU64(ra, kv.Key)
			tbl.pool.QuietStoreU64(ra.Add(8), kv.Value)
		}},
		{"slot clear in the mirror holding a claimed record in PM", "clear in the mirror, but PM holds a record the segment claims", func(t *testing.T, tbl *Table) {
			// A delete that reached the mirror alone.
			d, bi, slot := slotWhere(t, tbl, normalSlot)
			w := d.mir.Load().word(bi, mirBkMeta)
			w.Store(metaClearSlot(w.Load(), slot))
			tbl.count.Add(-1)
		}},
		{"count off by one", "bitmaps hold", func(_ *testing.T, tbl *Table) { tbl.count.Add(1) }},
		{"slot naming a free blob", "is referenced, but free", func(t *testing.T, tbl *Table) {
			d, bi, slot := slotWhere(t, tbl, indirectSlot)
			tbl.vlog.Free(recBlobAddr(d.mir.Load().recWord(bi, slot, 0).Load()))
		}},
		{"slot naming an address inside another blob", "not a blob the chunk walk reaches", func(t *testing.T, tbl *Table) {
			// The slot's own blob goes to the free list, so that only the
			// slot is wrong, not the blob it stops naming.
			d, bi, slot := slotWhere(t, tbl, indirectSlot)
			w := d.mir.Load().recWord(bi, slot, 0)
			tbl.vlog.Free(recBlobAddr(w.Load()))
			setWord(tbl, recordAddr(segBucket(d.seg, bi), slot), w, w.Load()+16)
		}},
		{"walked blob neither referenced nor free", "neither referenced nor free", func(t *testing.T, tbl *Table) {
			a, err := tbl.vlog.Append([]byte("nobody's key"), []byte("nobody's value"))
			if err != nil {
				t.Fatal(err)
			}
			tbl.vlog.Commit(a)
		}},
		{"blob header a walk cannot stride over", "the walk breaks", func(t *testing.T, tbl *Table) {
			// The newest blob, freed: nothing behind it for the walk to miss.
			a, err := tbl.vlog.Append([]byte("nobody's key"), []byte("nobody's value"))
			if err != nil {
				t.Fatal(err)
			}
			tbl.vlog.Free(a)
			tbl.pool.QuietStoreU64(a, 0)
		}},
		{"split marker left set", "split marker", func(_ *testing.T, tbl *Table) {
			d := tbl.cache.view.Load().entries[0].Load()
			tbl.pool.QuietStoreU64(d.seg.Add(segOffSplit), uint64(d.seg)|splitStateInFlight)
		}},
		{"splitter held", "split ownership held", func(_ *testing.T, tbl *Table) {
			tbl.cache.view.Load().entries[0].Load().splitter.Store(true)
		}},
		{"descriptor no entry names", "no view entry names it", func(_ *testing.T, tbl *Table) {
			d := &segDesc{seg: pmem.Addr(tbl.pool.Size() - segmentSize)} // zeroed, like its mirror
			d.mir.Store(&segMirror{})
			tbl.cache.descs[d.seg] = d
		}},
		{"second descriptor of a segment", "other than its registered one", func(_ *testing.T, tbl *Table) {
			e := &tbl.cache.view.Load().entries[0]
			c := &segDesc{seg: e.Load().seg}
			c.mir.Store(e.Load().mir.Load())
			e.Store(c)
		}},
		{"recovered descriptor without a mirror", "has no mirror", func(_ *testing.T, tbl *Table) {
			tbl.cache.view.Load().entries[0].Load().mir.Store(nil)
		}},
		{"claims overlapping", "entries name it", func(_ *testing.T, tbl *Table) {
			d := tbl.cache.view.Load().entries[0].Load()
			mir := d.mir.Load()
			l, pat := mir.depth.Load()-1, mir.pattern.Load()>>1
			setWord(tbl, d.seg.Add(segOffDepth), &mir.depth, l)
			setWord(tbl, d.seg.Add(segOffPattern), &mir.pattern, pat)
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			tbl := corruptible(t)
			r.corrupt(t, tbl)
			err := tbl.Verify()
			if err == nil {
				t.Fatal("Verify passed the corruption")
			}
			for _, line := range strings.Split(err.Error(), "\n") {
				if !strings.Contains(line, r.want) {
					t.Fatalf("Verify = %v\nwant only lines naming %q", err, r.want)
				}
			}
		})
	}
	t.Run("reads no padding", func(t *testing.T) {
		tbl := corruptible(t)
		fillPadding(tbl.pool, tbl.cache.descs)
		if err := tbl.Verify(); err != nil {
			t.Fatalf("Verify read the buckets' padding: %v", err)
		}
	})
	t.Run("moves no PM counter", func(t *testing.T) {
		tbl := corruptible(t)
		if !tbl.DeleteB(varKey(0, 24)) { // a retired blob for Verify's drain to free
			t.Fatal("DeleteB missed")
		}
		before := tbl.pool.Stats()
		if err := tbl.Verify(); err != nil {
			t.Fatal(err)
		}
		if after := tbl.pool.Stats(); after != before {
			t.Fatalf("Verify moved the PM counters from %+v to %+v", before, after)
		}
	})
}

// fillPadding stores garbage over both paddings of every bucket of the
// segments in segs — words no part of the table may read — quietly.
func fillPadding[D any](p *pmem.Pool, segs map[pmem.Addr]D) {
	for seg := range segs {
		for bi := 0; bi < totalBuckets; bi++ {
			ba := segBucket(seg, bi)
			for _, off := range []uint64{bkOffPadding, bkOffPadding + 8, bkOffTail, bkOffTail + 8} {
				p.QuietStoreU64(ba.Add(off), 0xDEADBEEF_FFFFFFFF^uint64(bi)<<16^off)
			}
		}
	}
}

// TestOpenRejectsCorruptImage corrupts one word of a table's image per row —
// a word Open follows before any segment is touched — and requires Open to
// return an error naming it: not panic, not exhaust memory, not hang.
func TestOpenRejectsCorruptImage(t *testing.T) {
	tbl := corruptible(t)
	p := tbl.pool
	img := p.Snapshot()
	dir := pmem.Addr(p.QuietLoadU64(rootAddr.Add(rootOffDir)))
	seg := dirLoadEntry(p, dir, 0)
	chunk := pmem.Addr(p.QuietLoadU64(rootAddr.Add(rootOffVarLog)))
	frontier := p.QuietLoadU64(rootAddr.Add(rootOffAllocNxt))
	rows := []struct {
		name, want string
		word       pmem.Addr
		v          uint64
	}{
		{"format-3 image, blobs with a commit word", "unsupported table format 3", rootAddr.Add(rootOffFormat), 3},
		{"format-4 image, no route filter on a clean open", "unsupported table format 4", rootAddr.Add(rootOffFormat), 4},
		{"format-5 image, fingerprints and stash tracking in PM", "unsupported table format 5", rootAddr.Add(rootOffFormat), 5},
		{"format-6 image, a bitmap in PM and key 0 stored as zero", "unsupported table format 6", rootAddr.Add(rootOffFormat), 6},
		{"directory pointer past the pool", "root names directory", rootAddr.Add(rootOffDir), p.Size() + 4096},
		{"misaligned directory pointer", "root names directory", rootAddr.Add(rootOffDir), uint64(dir) + 8},
		{"directory depth no pool holds", "of depth 40 overruns", dir.Add(dirOffDepth), 40},
		{"directory entry past the frontier", "directory entry 1 names", dirEntryAddr(dir, 1), frontier},
		{"misaligned directory entry", "directory entry 0 names", dirEntryAddr(dir, 0), uint64(seg) + 64},
		{"segment pattern wider than its depth", "claims (depth", seg.Add(segOffPattern), 1 << 20},
		{"allocation frontier past the pool", "allocation frontier", rootAddr.Add(rootOffAllocNxt), 2 * p.Size()},
		{"chunk pointer past the pool", "varlog chunk pointer", rootAddr.Add(rootOffVarLog), p.Size()},
		{"chunk chain that loops", "corrupt", chunk.Add(0), uint64(chunk)},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			pool, err := pmem.OpenSnapshot(img, pmem.Options{})
			if err != nil {
				t.Fatal(err)
			}
			pool.QuietStoreU64(r.word, r.v)
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("Open panicked: %v", v)
				}
			}()
			if _, err := Open(pool); err == nil || !strings.Contains(err.Error(), r.want) {
				t.Fatalf("Open = %v, want an error naming %q", err, r.want)
			}
		})
	}
}
