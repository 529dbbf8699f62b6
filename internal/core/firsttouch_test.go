package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dash/internal/pmem"
)

// First touch on crash images whose bucket words were written outside every
// protocol: records placed where no insert puts them, copies of one key, a
// stored hash that is not its blob key's. recoverSegment's one pass must
// delete what no probe could trust, keep the first copy of a key in
// bucket-then-slot order, and leave a table that verifies.

// locate returns where tbl's mirror holds pk's record: its segment, its
// place and its words.
func locate(t testing.TB, tbl *Table, pk probeKey) (*segDesc, recLoc, pmem.KV) {
	t.Helper()
	d := tbl.cache.route(pk.parts)
	kv, loc, found, _ := mirSegSearch(tbl.vlog, tbl.mirror(d), &pk, false)
	if !found {
		t.Fatalf("key %#x not found", pk.parts.Hash)
	}
	return d, loc, kv
}

// storeRec stores kv's two words into the PM slot at ra, quietly.
func storeRec(p *pmem.Pool, ra pmem.Addr, kv pmem.KV) {
	p.QuietStoreU64(ra, kv.Key)
	p.QuietStoreU64(ra.Add(8), kv.Value)
}

// freeSlot returns the lowest slot of bucket bi that d's mirror holds clear.
func freeSlot(t testing.TB, d *segDesc, bi int) int {
	t.Helper()
	s := metaFirstFree(d.mir.Load().word(bi, mirBkMeta).Load())
	if s < 0 {
		t.Fatalf("bucket %d of segment %#x is full", bi, d.seg)
	}
	return s
}

// TestFirstTouchReadCharges pins what a segment's first touch reads, on a
// crash image of inline records with the background driver off: the Get
// that touches a segment first reads its header line and its 231 record
// lines — one streaming read, each line two buckets share counted once — and
// a second Get into it reads nothing.
func TestFirstTouchReadCharges(t *testing.T) {
	pool, err := pmem.NewPool(pmem.Options{Size: 1 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 200; k++ {
		if err := tbl.Insert(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	withLazyGates(t)
	re, _ := reopenImage(t, pool.Snapshot())
	for i, want := range []uint64{1 + 231, 0} {
		if got := readLines(re.pool, func() {
			if v, ok := re.Get(7); !ok || v != 8 {
				t.Fatalf("Get(7) = %d,%v", v, ok)
			}
		}); got != want {
			t.Fatalf("Get %d into the segment read %d PM lines, want %d", i+1, got, want)
		}
	}
}

// TestFirstTouchDeletesMisplacedRecord: a normal-bucket record outside its
// home pair is one no probe reaches. On a crash image and on a clean one,
// first touch deletes it (word 0 persisted zero) and counts it in
// recovery.corrupt_slots, and the count — derived, or restored from the root
// and given one back — is the records a probe finds.
func TestFirstTouchDeletesMisplacedRecord(t *testing.T) {
	for _, c := range []struct {
		name  string
		clean bool
	}{{"crash", false}, {"clean", true}} {
		t.Run(c.name, func(t *testing.T) {
			img, at := misplacedImage(t, c.clean)
			p := openImage(t, img)
			re, err := Open(p)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			re.RecoverAll()
			requireVerified(t, re)
			if got := re.met.corruptSlots.Total(); got != 1 {
				t.Fatalf("recovery.corrupt_slots = %d, want 1", got)
			}
			if w0 := p.QuietLoadU64(at); w0 != 0 {
				t.Fatalf("the misplaced slot's word 0 is %#x, want it deleted", w0)
			}
			if got := re.Count(); got != 49 {
				t.Fatalf("Count = %d, want 49", got)
			}
			for k := uint64(1); k <= 50; k++ {
				if v, ok := re.Get(k); ok != (k != 7) || ok && v != k {
					t.Fatalf("Get(%d) = %d, %v", k, v, ok)
				}
			}
		})
	}
}

// misplacedImage returns the image of a depth-1 table holding keys 1..50,
// crashed or closed, in which key 7's record has moved to the last slot of
// bucket (home+5) mod 64, and that slot's address.
func misplacedImage(t testing.TB, clean bool) ([]byte, pmem.Addr) {
	t.Helper()
	pool, err := pmem.NewPool(pmem.Options{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 50; k++ {
		if err := tbl.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	pk := tbl.probeU64(7)
	d, loc, kv := locate(t, tbl, pk)
	if clean {
		tbl.Close()
	}
	b, _ := homePair(pk.parts)
	at := slotAddr(d.seg, (b+5)%normalBuckets, slotsPerBucket-1)
	pool.QuietStoreU64(slotAddr(d.seg, loc.bucket, loc.slot), 0)
	storeRec(pool, at, kv)
	return pool.Snapshot(), at
}

// dupBase is the crash image the duplicate cases edit: a depth-1 table of
// dupU64Keys inline records, dupVarKeys variable-length ones and one key
// (dupConvKey) an update converted from inline to indirect.
type dupBase struct {
	src     *Table // the table the image was taken of, for its mirrors
	img     []byte
	convOld recLoc // the slot the conversion freed, and its inline words
	convKV  pmem.KV
	records int64
}

const (
	dupU64Keys = 400
	dupVarKeys = 20
	dupConvKey = uint64(1) << 40
)

func newDupBase(t *testing.T) *dupBase {
	t.Helper()
	pool, err := pmem.NewPool(pmem.Options{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= dupU64Keys; k++ {
		if err := tbl.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < dupVarKeys; i++ {
		if err := tbl.InsertB(varKey(i, 24), varVal(i, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Insert(dupConvKey, 5); err != nil {
		t.Fatal(err)
	}
	_, old, kv := locate(t, tbl, tbl.probeU64(dupConvKey))
	if ok, err := tbl.UpdateB(le64(dupConvKey), varVal(1, 40)); !ok || err != nil {
		t.Fatalf("UpdateB = %v, %v", ok, err)
	}
	return &dupBase{src: tbl, img: pool.Snapshot(), convOld: old, convKV: kv, records: dupU64Keys + dupVarKeys + 1}
}

func le64(k uint64) []byte { return binary.LittleEndian.AppendUint64(nil, k) }

// keyWhere returns where tbl holds the first of its inline keys 1..n for
// which ok holds, given the record's place and its home bucket, and whose
// segment has a free slot in every bucket to names.
func keyWhere(tb testing.TB, tbl *Table, n uint64, ok func(loc recLoc, home int) bool, to func(loc recLoc) []int) (*segDesc, recLoc, pmem.KV) {
	tb.Helper()
	for k := uint64(1); k <= n; k++ {
		pk := tbl.probeU64(k)
		d, loc, kv := locate(tb, tbl, pk)
		home, _ := homePair(pk.parts)
		fits := ok(loc, home)
		for _, bi := range to(loc) {
			fits = fits && bucketFreeSlots(d.mir.Load(), bi) > 0
		}
		if fits {
			return d, loc, kv
		}
	}
	tb.Fatal("the table holds no key the case needs")
	return nil, recLoc{}, pmem.KV{}
}

// The places keyWhere is asked for: any record, to copy within its bucket;
// one in its home bucket, to copy to the probe bucket; one in bucket 63 and
// homed there, to copy to bucket 0, where the pair wraps; one in a normal
// bucket, to copy to the stash.
var (
	anyPlace   = func(recLoc, int) bool { return true }
	atHome     = func(loc recLoc, home int) bool { return loc.bucket == home && home != normalBuckets-1 }
	atHome63   = func(loc recLoc, home int) bool { return loc.bucket == normalBuckets-1 && home == loc.bucket }
	notInStash = func(loc recLoc, _ int) bool { return !loc.inStash() }
	sameBucket = func(loc recLoc) []int { return []int{loc.bucket} }
	nextBucket = func(loc recLoc) []int { return []int{loc.bucket + 1} }
	bucket0    = func(recLoc) []int { return []int{0} }
	bothStash  = func(recLoc) []int { return []int{normalBuckets, normalBuckets + 1} }
)

// TestFirstTouchKeepsFirstCopy: a crash image in which a key has two
// copies, wherever copies can sit — one bucket, its home and probe buckets,
// home 63 and bucket 0 (the pair wraps, so scan order is not lookup order), a
// normal bucket and the stash, both stash buckets, and an inline record
// beside the indirect one a converting update wrote. First touch keeps the
// copy that comes first in bucket-then-slot order and deletes the other,
// which costs exactly one written line, one flush and one fence; the count is
// the base's keys, and the table verifies. A last row: an indirect record
// whose stored hash is not its blob key's is deleted as corrupt, at the same
// price.
func TestFirstTouchKeepsFirstCopy(t *testing.T) {
	withLazyGates(t)
	base := newDupBase(t)
	// A case edits the image in p and returns the segment it edited, the
	// two slots in scan order, and the records the table must then hold.
	type edit func(t *testing.T, p *pmem.Pool) (seg pmem.Addr, first, later pmem.Addr, records int64)
	copyTo := func(d *segDesc, loc recLoc, kv pmem.KV, bi int) edit {
		return func(t *testing.T, p *pmem.Pool) (pmem.Addr, pmem.Addr, pmem.Addr, int64) {
			slot := freeSlot(t, d, bi)
			at, from := slotAddr(d.seg, bi, slot), slotAddr(d.seg, loc.bucket, loc.slot)
			storeRec(p, at, kv)
			if bi < loc.bucket || bi == loc.bucket && slot < loc.slot {
				return d.seg, at, from, base.records
			}
			return d.seg, from, at, base.records
		}
	}
	d1, loc1, kv1 := keyWhere(t, base.src, dupU64Keys, anyPlace, sameBucket)
	d2, loc2, kv2 := keyWhere(t, base.src, dupU64Keys, atHome, nextBucket)
	d3, loc3, kv3 := keyWhere(t, base.src, dupU64Keys, atHome63, bucket0)
	d4, loc4, kv4 := keyWhere(t, base.src, dupU64Keys, notInStash, bothStash)
	for _, c := range []struct {
		name    string
		edit    edit
		corrupt uint64
	}{
		{"one bucket", copyTo(d1, loc1, kv1, loc1.bucket), 0},
		{"home and probe", copyTo(d2, loc2, kv2, loc2.bucket+1), 0},
		{"home 63 and bucket 0", copyTo(d3, loc3, kv3, 0), 0},
		{"normal and stash", copyTo(d4, loc4, kv4, normalBuckets), 0},
		{"both stash buckets", func(t *testing.T, p *pmem.Pool) (pmem.Addr, pmem.Addr, pmem.Addr, int64) {
			a := slotAddr(d4.seg, normalBuckets, freeSlot(t, d4, normalBuckets))
			b := slotAddr(d4.seg, normalBuckets+1, freeSlot(t, d4, normalBuckets+1))
			storeRec(p, a, kv4)
			storeRec(p, b, kv4)
			p.QuietStoreU64(slotAddr(d4.seg, loc4.bucket, loc4.slot), 0)
			return d4.seg, a, b, base.records
		}, 0},
		{"inline and indirect", func(t *testing.T, p *pmem.Pool) (pmem.Addr, pmem.Addr, pmem.Addr, int64) {
			d, loc, _ := locate(t, base.src, base.src.probeU64(dupConvKey))
			old := base.convOld
			inline, indirect := slotAddr(d.seg, old.bucket, old.slot), slotAddr(d.seg, loc.bucket, loc.slot)
			storeRec(p, inline, base.convKV)
			if old.bucket < loc.bucket || old.bucket == loc.bucket && old.slot < loc.slot {
				return d.seg, inline, indirect, base.records
			}
			return d.seg, indirect, inline, base.records
		}, 0},
		{"stored hash not the blob key's", func(t *testing.T, p *pmem.Pool) (pmem.Addr, pmem.Addr, pmem.Addr, int64) {
			d, loc, kv := locate(t, base.src, base.src.probeBytes(varKey(3, 24)))
			at := slotAddr(d.seg, loc.bucket, loc.slot)
			p.QuietStoreU64(at.Add(8), kv.Value^1<<20) // no bit routing, the bucket or the fingerprint reads
			return d.seg, 0, at, base.records - 1
		}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := openImage(t, base.img)
			seg, first, later, records := c.edit(t, p)
			var kept pmem.KV
			if first != 0 {
				kept = pmem.KV{Key: p.QuietLoadU64(first), Value: p.QuietLoadU64(first.Add(8))}
			}
			re, err := Open(p)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			before := p.Stats()
			re.mirror(segDescs(re)[seg])
			if d := p.Stats().Sub(before); d.WriteLines != 1 || d.FlushedLines != 1 || d.Fences != 1 {
				t.Errorf("first touch wrote %d lines, flushed %d and fenced %d times, want 1, 1, 1", d.WriteLines, d.FlushedLines, d.Fences)
			}
			if first != 0 {
				if got := (pmem.KV{Key: p.QuietLoadU64(first), Value: p.QuietLoadU64(first.Add(8))}); got != kept {
					t.Errorf("the first copy holds %+v, want %+v", got, kept)
				}
			}
			if w0 := p.QuietLoadU64(later); w0 != 0 {
				t.Errorf("the later slot's word 0 is %#x, want it deleted", w0)
			}
			re.RecoverAll()
			if got := re.Count(); got != records {
				t.Errorf("Count = %d, want %d", got, records)
			}
			if got := re.met.corruptSlots.Total(); got != c.corrupt {
				t.Errorf("recovery.corrupt_slots = %d, want %d", got, c.corrupt)
			}
			requireVerified(t, re)
			for k := uint64(1); k <= dupU64Keys; k++ {
				if v, ok := re.Get(k); !ok || v != k {
					t.Fatalf("Get(%d) = %d, %v", k, v, ok)
				}
			}
			for i := 0; i < dupVarKeys; i++ {
				if v, ok := re.GetB(varKey(i, 24)); ok != (c.corrupt == 0 || i != 3) || ok && !bytes.Equal(v, varVal(i, 40)) {
					t.Fatalf("GetB(%d) = %q, %v", i, v, ok)
				}
			}
			if _, ok := re.Get(dupConvKey); !ok {
				t.Fatalf("the converted key is gone")
			}
		})
	}
}

// fuzzTouchImage is FuzzFirstTouch's crash image: a depth-1 table of
// variable-length and inline records, one of them converted by an update,
// grown until it has displaced a record, spilled one to the stash and split
// once — so its old segment holds stale slots. slots lists every slot of
// every segment the directory names, the fuzz input's coordinates.
type fuzzTouchImage struct {
	img   []byte
	slots []pmem.Addr
	src   *Table
	keys  uint64 // the inline keys 1..keys
}

func newFuzzTouchImage(tb testing.TB) *fuzzTouchImage {
	tb.Helper()
	pool, err := pmem.NewPool(pmem.Options{Size: 1 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 1})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := tbl.InsertB(varKey(i, 24), varVal(i, 40)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tbl.Insert(dupConvKey, 5); err != nil {
		tb.Fatal(err)
	}
	if ok, err := tbl.UpdateB(le64(dupConvKey), varVal(1, 40)); !ok || err != nil {
		tb.Fatalf("UpdateB = %v, %v", ok, err)
	}
	k := uint64(0)
	for tbl.met.splits.Total() == 0 || tbl.met.placed[placedDisplaced].Total() == 0 || tbl.met.placed[placedStash].Total() == 0 {
		k++
		if err := tbl.Insert(k, k); err != nil {
			tb.Fatal(err)
		}
	}
	im := &fuzzTouchImage{img: pool.Snapshot(), src: tbl, keys: k}
	tbl.cache.view.Load().eachSegment(func(d *segDesc) {
		for bi := 0; bi < totalBuckets; bi++ {
			for slot := 0; slot < slotsPerBucket; slot++ {
				im.slots = append(im.slots, slotAddr(d.seg, bi, slot))
			}
		}
	})
	return im
}

// index returns the fuzz coordinate of a segment's slot.
func (im *fuzzTouchImage) index(tb testing.TB, seg pmem.Addr, bi, slot int) uint16 {
	a := slotAddr(seg, bi, slot)
	for i, s := range im.slots {
		if s == a {
			return uint16(i)
		}
	}
	tb.Fatalf("slot %#x is in no segment the directory names", a)
	return 0
}

// fuzzTouchOp is one mutation of FuzzFirstTouch's image: op 1 stores v to
// the word 0 of slot i (mod the slot count), op 2 to its word 1, op 3 copies
// slot v's two words into it, anything else is no mutation.
type fuzzTouchOp struct {
	i  uint16
	op uint8
	v  uint64
}

// FuzzFirstTouch mutates word 0 and word 1 of up to four slots of a small
// crash image (fuzzTouchImage), and requires that Open fail, or that Open
// and RecoverAll leave a table that verifies — never a panic or a hang. The
// seeds are the image itself, the copies TestFirstTouchKeepsFirstCopy makes,
// a stored hash that is not its blob key's, a record moved out of its home
// pair and a slot naming no blob.
func FuzzFirstTouch(f *testing.F) {
	im := newFuzzTouchImage(f)
	src := im.src
	at := func(seg pmem.Addr, loc recLoc) uint16 { return im.index(f, seg, loc.bucket, loc.slot) }
	free := func(d *segDesc, bi int) uint16 { return im.index(f, d.seg, bi, freeSlot(f, d, bi)) }
	d1, loc1, _ := keyWhere(f, src, im.keys, anyPlace, sameBucket)
	d2, loc2, _ := keyWhere(f, src, im.keys, atHome, nextBucket)
	d3, loc3, _ := keyWhere(f, src, im.keys, atHome63, bucket0)
	d4, loc4, _ := keyWhere(f, src, im.keys, notInStash, bothStash)
	d5, loc5, _ := keyWhere(f, src, im.keys, func(loc recLoc, home int) bool { return loc.bucket == home },
		func(loc recLoc) []int { return []int{(loc.bucket + 5) % normalBuckets} })
	dv, locv, kvv := locate(f, src, src.probeBytes(varKey(3, 24)))
	dc, locc, _ := locate(f, src, src.probeU64(dupConvKey))
	copyOp := func(to, from uint16) fuzzTouchOp { return fuzzTouchOp{to, 3, uint64(from)} }
	for _, seed := range [][]fuzzTouchOp{
		{},
		{copyOp(free(d1, loc1.bucket), at(d1.seg, loc1))},
		{copyOp(free(d2, loc2.bucket+1), at(d2.seg, loc2))},
		{copyOp(free(d3, 0), at(d3.seg, loc3))},
		{copyOp(free(d4, normalBuckets), at(d4.seg, loc4))},
		{copyOp(free(d4, normalBuckets), at(d4.seg, loc4)), copyOp(free(d4, normalBuckets+1), at(d4.seg, loc4)), {at(d4.seg, loc4), 1, 0}},
		{{free(dc, locc.bucket), 1, recInlineWord(dupConvKey)}, {free(dc, locc.bucket), 2, 5}},
		{{at(dv.seg, locv), 2, kvv.Value ^ 1<<20}},
		{copyOp(free(d5, (loc5.bucket+5)%normalBuckets), at(d5.seg, loc5)), {at(d5.seg, loc5), 1, 0}},
		{{at(dv.seg, locv), 1, recPack(pmem.Addr(1<<20), 24)}},
	} {
		var ops [4]fuzzTouchOp
		copy(ops[:], seed)
		f.Add(ops[0].i, ops[0].op, ops[0].v, ops[1].i, ops[1].op, ops[1].v, ops[2].i, ops[2].op, ops[2].v, ops[3].i, ops[3].op, ops[3].v)
	}
	f.Fuzz(func(t *testing.T, i0 uint16, o0 uint8, v0 uint64, i1 uint16, o1 uint8, v1 uint64, i2 uint16, o2 uint8, v2 uint64, i3 uint16, o3 uint8, v3 uint64) {
		pool := openImage(t, im.img)
		n := len(im.slots)
		for _, op := range []fuzzTouchOp{{i0, o0, v0}, {i1, o1, v1}, {i2, o2, v2}, {i3, o3, v3}} {
			a := im.slots[int(op.i)%n]
			switch op.op {
			case 1:
				pool.QuietStoreU64(a, op.v)
			case 2:
				pool.QuietStoreU64(a.Add(8), op.v)
			case 3:
				from := im.slots[op.v%uint64(n)]
				storeRec(pool, a, pmem.KV{Key: pool.QuietLoadU64(from), Value: pool.QuietLoadU64(from.Add(8))})
			}
		}
		tbl, err := Open(pool)
		if err != nil {
			return
		}
		defer tbl.Close()
		tbl.RecoverAll()
		if err := tbl.Verify(); err != nil {
			t.Fatalf("Open accepted the image, which then fails Verify after first touch: %v", err)
		}
	})
}
