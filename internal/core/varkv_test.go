package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"dash/internal/pmem"
)

func varKey(i int, klen int) []byte {
	k := make([]byte, klen)
	binary.LittleEndian.PutUint64(k, uint64(i))
	for j := 8; j < klen; j++ {
		k[j] = byte(i * 31 / (j + 1))
	}
	return k
}

func varVal(i int, vlen int) []byte {
	v := make([]byte, vlen)
	for j := range v {
		v[j] = byte(i + j*7)
	}
	return v
}

// TestVarRoundtrip inserts records across the 16–128B key/value range,
// forcing multiple splits, and verifies every record's exact bytes, then
// deletes half and re-verifies.
func TestVarRoundtrip(t *testing.T) {
	tbl := newTestTable(t, 64<<20, Options{})
	const n = 4000
	for i := 0; i < n; i++ {
		klen := 16 + i%113
		vlen := 16 + (i*37)%113
		if err := tbl.InsertB(varKey(i, klen), varVal(i, vlen)); err != nil {
			t.Fatalf("InsertB %d: %v", i, err)
		}
	}
	if got := tbl.Count(); got != n {
		t.Fatalf("count = %d, want %d", got, n)
	}
	if s, blobs := tbl.Stats(), tbl.vlog.Stats().LiveBlobs; s.Splits == 0 || blobs != n {
		t.Fatalf("expected splits and %d live blobs, got %d and %+v", n, blobs, s)
	}
	for i := 0; i < n; i++ {
		klen := 16 + i%113
		vlen := 16 + (i*37)%113
		v, ok := tbl.GetB(varKey(i, klen))
		if !ok {
			t.Fatalf("GetB %d: missing", i)
		}
		if !bytes.Equal(v, varVal(i, vlen)) {
			t.Fatalf("GetB %d: wrong value", i)
		}
	}
	if _, ok := tbl.GetB(varKey(n+1, 40)); ok {
		t.Fatal("GetB found a never-inserted key")
	}
	for i := 0; i < n; i += 2 {
		if !tbl.DeleteB(varKey(i, 16+i%113)) {
			t.Fatalf("DeleteB %d: missing", i)
		}
	}
	for i := 0; i < n; i++ {
		_, ok := tbl.GetB(varKey(i, 16+i%113))
		if want := i%2 == 1; ok != want {
			t.Fatalf("after deletes, GetB(%d) = %v, want %v", i, ok, want)
		}
	}
	if got, want := tbl.Count(), int64(n/2); got != want {
		t.Fatalf("count after deletes = %d, want %d", got, want)
	}
}

// TestVarUpdateCOW updates variable records with values of different
// lengths (copy-on-write with length change) and checks freed blobs are
// recycled through the log's free list.
func TestVarUpdateCOW(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{})
	const n = 500
	for i := 0; i < n; i++ {
		if err := tbl.InsertB(varKey(i, 24), varVal(i, 32)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 1; round <= 3; round++ {
		for i := 0; i < n; i++ {
			nv := varVal(i+round*1000, 16+(i+round)%100)
			ok, err := tbl.UpdateB(varKey(i, 24), nv)
			if err != nil || !ok {
				t.Fatalf("UpdateB %d round %d = %v, %v", i, round, ok, err)
			}
			if got, ok := tbl.GetB(varKey(i, 24)); !ok || !bytes.Equal(got, nv) {
				t.Fatalf("GetB %d after update: ok=%v", i, ok)
			}
		}
	}
	if ok, err := tbl.UpdateB(varKey(n+5, 24), []byte("x")); ok || err != nil {
		t.Fatalf("UpdateB of absent key = %v, %v", ok, err)
	}
	tbl.Close() // drain epochs so retired blobs reach the free list
	if s := tbl.vlog.Stats(); s.LiveBlobs != n || s.FreeBytes == 0 {
		t.Fatalf("after COW churn: %+v, want %d live blobs and a non-empty free list", s, n)
	}
}

// TestVarU64Interop drives the same keys through both APIs: a uint64 key
// and its 8-byte little-endian encoding are one key, whatever
// representation the record currently uses.
func TestVarU64Interop(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{})

	// Inline-inserted record, read/updated through the []byte API.
	if err := tbl.Insert(42, 4242); err != nil {
		t.Fatal(err)
	}
	k42 := make([]byte, 8)
	binary.LittleEndian.PutUint64(k42, 42)
	if v, ok := tbl.GetB(k42); !ok || binary.LittleEndian.Uint64(v) != 4242 {
		t.Fatalf("GetB(le(42)) = %x, %v", v, ok)
	}
	if err := tbl.InsertB(k42, []byte("whatever")); !errors.Is(err, ErrKeyExists) {
		t.Fatalf("InsertB duplicate of inline key: %v", err)
	}
	// 8-byte update stays inline; long update converts the representation.
	if ok, err := tbl.UpdateB(k42, []byte("eight_by")); !ok || err != nil {
		t.Fatalf("8B UpdateB: %v %v", ok, err)
	}
	if v, _ := tbl.Get(42); v != binary.LittleEndian.Uint64([]byte("eight_by")) {
		t.Fatalf("Get(42) after 8B update = %#x", v)
	}
	long := bytes.Repeat([]byte{0xAB}, 60)
	if ok, err := tbl.UpdateB(k42, long); !ok || err != nil {
		t.Fatalf("converting UpdateB: %v %v", ok, err)
	}
	if v, ok := tbl.GetB(k42); !ok || !bytes.Equal(v, long) {
		t.Fatal("GetB after conversion lost the value")
	}
	if v, ok := tbl.Get(42); !ok || v != binary.LittleEndian.Uint64(long[:8]) {
		t.Fatalf("Get(42) fixed-width view after conversion = %#x, %v", v, ok)
	}
	// Back to a u64-sized value via the u64 API: copy-on-write, record
	// stays indirect, both views agree.
	if ok, err := tbl.Update(42, 777); !ok || err != nil {
		t.Fatal("u64 Update on indirect record reported missing")
	}
	if v, ok := tbl.Get(42); !ok || v != 777 {
		t.Fatalf("Get(42) = %d, %v", v, ok)
	}
	if !tbl.Delete(42) {
		t.Fatal("Delete(42) reported missing")
	}
	if _, ok := tbl.GetB(k42); ok {
		t.Fatal("GetB found deleted key")
	}

	// Bit-63 uint64 keys route through the log transparently.
	hi := uint64(1)<<63 | 12345
	if err := tbl.Insert(hi, 99); err != nil {
		t.Fatal(err)
	}
	if v, ok := tbl.Get(hi); !ok || v != 99 {
		t.Fatalf("Get(bit63 key) = %d, %v", v, ok)
	}
	if ok, err := tbl.Update(hi, 100); !ok || err != nil {
		t.Fatal("Update(bit63 key) missing")
	}
	if v, _ := tbl.Get(hi); v != 100 {
		t.Fatalf("Get(bit63 key) after update = %d", v)
	}
	khi := make([]byte, 8)
	binary.LittleEndian.PutUint64(khi, hi)
	if v, ok := tbl.GetB(khi); !ok || binary.LittleEndian.Uint64(v) != 100 {
		t.Fatalf("GetB(le(bit63 key)) = %x, %v", v, ok)
	}
	if !tbl.Delete(hi) {
		t.Fatal("Delete(bit63 key) missing")
	}

	// An 8/8 InsertB with bit 63 clear takes the inline representation and
	// is visible through the u64 API.
	kb := make([]byte, 8)
	binary.LittleEndian.PutUint64(kb, 7777)
	vb := make([]byte, 8)
	binary.LittleEndian.PutUint64(vb, 8888)
	if err := tbl.InsertB(kb, vb); err != nil {
		t.Fatal(err)
	}
	if v, ok := tbl.Get(7777); !ok || v != 8888 {
		t.Fatalf("Get(7777) = %d, %v", v, ok)
	}
	if err := tbl.Insert(7777, 1); !errors.Is(err, ErrKeyExists) {
		t.Fatalf("Insert duplicate of InsertB key: %v", err)
	}
	tbl.Close() // drain epochs so the deleted records' blob frees land
	if blobs := tbl.vlog.Stats().LiveBlobs; blobs != 0 {
		t.Fatalf("inline-only table holds %d live blobs", blobs)
	}
}

// TestRecInlineKey: a uint64 key is stored inline unless bit 63 is set or it
// is recZeroKeyWord, the word 0 that stands for key 0; every inline key's
// word 0 is non-zero, has bit 63 clear and decodes back to the key, and
// every inline key but 0 is stored as itself.
func TestRecInlineKey(t *testing.T) {
	if recZeroKeyWord == 0 || recIsIndirect(recZeroKeyWord) {
		t.Fatalf("recZeroKeyWord %#x must be non-zero with bit 63 clear", recZeroKeyWord)
	}
	for _, c := range []struct {
		key    uint64
		inline bool
	}{
		{0, true}, {1, true}, {1<<63 - 1, true}, {recZeroKeyWord ^ 1, true},
		{recZeroKeyWord, false}, {1 << 63, false}, {recZeroKeyWord | 1<<63, false}, {^uint64(0), false},
	} {
		if got := recInlineKey(c.key); got != c.inline {
			t.Fatalf("recInlineKey(%#x) = %v, want %v", c.key, got, c.inline)
		}
		if !c.inline {
			continue
		}
		if w := recInlineWord(c.key); w == 0 || recIsIndirect(w) || recWordKey(w) != c.key || c.key != 0 && w != c.key {
			t.Fatalf("key %#x: word 0 %#x, decoded %#x", c.key, w, recWordKey(w))
		}
	}
}

// FuzzRecordWord: an inline record's word 0 gives back its key, is never 0
// (an empty slot) and never has bit 63 set (an indirect record); the keys
// recInlineKey refuses are exactly recZeroKeyWord and the bit-63 keys.
func FuzzRecordWord(f *testing.F) {
	for _, k := range fuzzSeedWords {
		f.Add(k)
	}
	f.Fuzz(func(t *testing.T, k uint64) {
		if !recInlineKey(k) {
			if k != recZeroKeyWord && k&recIndirectBit == 0 {
				t.Fatalf("key %#x refused as inline", k)
			}
			return
		}
		if k == recZeroKeyWord || k&recIndirectBit != 0 {
			t.Fatalf("key %#x accepted as inline", k)
		}
		w := recInlineWord(k)
		if w == 0 || recIsIndirect(w) {
			t.Fatalf("key %#x: inline word 0 %#x is empty or indirect", k, w)
		}
		if got := recWordKey(w); got != k {
			t.Fatalf("key %#x: word 0 %#x reads back key %#x", k, w, got)
		}
	})
}

// TestZeroKeyRoundTrip drives the two keys the word 0 encoding singles out
// through every uint64 and []byte op and a crash reopen: recZeroKeyWord, the
// one key with bit 63 clear that goes through the log, and key 0, which stays
// inline with that word for its word 0. After the reopen both are found, and
// a Get of key 0 reads no PM line.
func TestZeroKeyRoundTrip(t *testing.T) {
	pool, err := pmem.NewPool(pmem.Options{Size: 4 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	le := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	for _, k := range []uint64{recZeroKeyWord, 0} {
		if err := tbl.Insert(k, 11); err != nil {
			t.Fatal(err)
		}
		pk := tbl.probeU64(k)
		kv, _, _, _ := mirSegSearch(tbl.vlog, tbl.mirror(tbl.cache.route(pk.parts)), &pk, true)
		if recIsIndirect(kv.Key) != (k == recZeroKeyWord) {
			t.Fatalf("key %#x stored with word 0 %#x", k, kv.Key)
		}
		if v, ok := tbl.Get(k); !ok || v != 11 {
			t.Fatalf("Get(%#x) = %d,%v", k, v, ok)
		}
		if v, ok := tbl.GetB(le(k)); !ok || !bytes.Equal(v, le(11)) {
			t.Fatalf("GetB(le(%#x)) = %x,%v", k, v, ok)
		}
		if err := tbl.Insert(k, 1); !errors.Is(err, ErrKeyExists) {
			t.Fatalf("duplicate Insert(%#x): %v", k, err)
		}
		if err := tbl.InsertB(le(k), le(1)); !errors.Is(err, ErrKeyExists) {
			t.Fatalf("duplicate InsertB(le(%#x)): %v", k, err)
		}
		if ok, err := tbl.Update(k, 12); !ok || err != nil {
			t.Fatalf("Update(%#x) = %v, %v", k, ok, err)
		}
		if ok, err := tbl.UpdateB(le(k), le(13)); !ok || err != nil {
			t.Fatalf("UpdateB(le(%#x)) = %v, %v", k, ok, err)
		}
		if v, ok := tbl.Get(k); !ok || v != 13 {
			t.Fatalf("Get(%#x) after the updates = %d,%v", k, v, ok)
		}
		if !tbl.Delete(k) || tbl.Delete(k) {
			t.Fatalf("Delete(%#x) did not delete exactly once", k)
		}
		if _, ok := tbl.Get(k); ok {
			t.Fatalf("Get(%#x) found the deleted key", k)
		}
		if err := tbl.Insert(k, 14); err != nil {
			t.Fatal(err)
		}
	}
	pool.Crash()
	re := openTestTable(t, pool)
	defer re.Close()
	if n := re.Count(); n != 2 {
		t.Fatalf("Count after the reopen = %d, want 2", n)
	}
	for _, k := range []uint64{recZeroKeyWord, 0} {
		if v, ok := re.GetB(le(k)); !ok || !bytes.Equal(v, le(14)) {
			t.Fatalf("GetB(le(%#x)) after the reopen = %x,%v", k, v, ok)
		}
	}
	if got := readLines(pool, func() {
		if v, ok := re.Get(0); !ok || v != 14 {
			t.Fatalf("Get(0) after the reopen = %d,%v", v, ok)
		}
	}); got != 0 {
		t.Fatalf("Get(0) after the reopen read %d PM lines, want 0: key 0 is inline", got)
	}
}

func TestVarRecordTooLarge(t *testing.T) {
	tbl := newTestTable(t, 8<<20, Options{})
	cases := []struct{ k, v []byte }{
		{nil, []byte("v")},
		{make([]byte, pmem.MaxVarKeyLen+1), []byte("v")},
		{[]byte("key"), make([]byte, pmem.MaxVarValueLen+1)},
	}
	for i, c := range cases {
		if err := tbl.InsertB(c.k, c.v); !errors.Is(err, ErrRecordTooLarge) {
			t.Fatalf("case %d: InsertB err = %v, want ErrRecordTooLarge", i, err)
		}
	}
	if err := tbl.InsertB([]byte("fits"), make([]byte, pmem.MaxVarValueLen)); err != nil {
		t.Fatalf("max-size record rejected: %v", err)
	}
	if ok, err := tbl.UpdateB([]byte("fits"), make([]byte, pmem.MaxVarValueLen+1)); ok || !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized UpdateB = %v, %v", ok, err)
	}
	if v, ok := tbl.GetB([]byte("fits")); !ok || len(v) != pmem.MaxVarValueLen {
		t.Fatalf("record damaged by rejected update: ok=%v len=%d", ok, len(v))
	}
	if got := tbl.Count(); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}

// TestVarCrashReopen closes the loop persistence-wise: a table full of
// variable records survives Snapshot/Open with exact bytes.
func TestVarCrashReopen(t *testing.T) {
	pool, err := pmem.NewPool(pmem.Options{Size: 2 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1500
	for i := 0; i < n; i++ {
		if err := tbl.InsertB(varKey(i, 16+i%100), varVal(i, 16+i%100)); err != nil {
			t.Fatal(err)
		}
	}
	pool.Crash()
	tbl2 := openTestTable(t, pool)
	defer tbl2.Close()
	if got := tbl2.Count(); got != n {
		t.Fatalf("recovered count = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		v, ok := tbl2.GetB(varKey(i, 16+i%100))
		if !ok || !bytes.Equal(v, varVal(i, 16+i%100)) {
			t.Fatalf("record %d damaged across crash (ok=%v)", i, ok)
		}
	}
}

// TestVarConcurrent hammers the variable-length path from several
// goroutines (inserts, reads, updates, deletes over disjoint key ranges
// with shared readers) — primarily a -race exercise of the lock-free blob
// dereference and epoch-deferred blob reuse.
func TestVarConcurrent(t *testing.T) {
	tbl := newTestTable(t, 64<<20, Options{})
	const (
		workers = 4
		perW    = 1200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := w * 1_000_000
			for i := 0; i < perW; i++ {
				id := base + i
				k := varKey(id, 16+id%100)
				if err := tbl.InsertB(k, varVal(id, 20)); err != nil {
					t.Errorf("InsertB %d: %v", id, err)
					return
				}
				if i%3 == 0 {
					if ok, err := tbl.UpdateB(k, varVal(id+7, 16+i%90)); !ok || err != nil {
						t.Errorf("UpdateB %d: %v %v", id, ok, err)
						return
					}
				}
				if i%5 == 0 {
					if !tbl.DeleteB(k) {
						t.Errorf("DeleteB %d: missing", id)
						return
					}
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			var buf []byte
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := (r*31 + i) % (workers * 1_000_000)
				var ok bool
				buf, ok = tbl.GetBAppend(buf[:0], varKey(id, 16+id%100))
				_ = ok
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	want := int64(workers * (perW - (perW+4)/5))
	if got := tbl.Count(); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perW; i++ {
			id := w*1_000_000 + i
			v, ok := tbl.GetB(varKey(id, 16+id%100))
			if i%5 == 0 {
				if ok {
					t.Fatalf("deleted key %d still visible", id)
				}
				continue
			}
			if !ok {
				t.Fatalf("key %d lost", id)
			}
			want := varVal(id, 20)
			if i%3 == 0 {
				want = varVal(id+7, 16+i%90)
			}
			if !bytes.Equal(v, want) {
				t.Fatalf("key %d has wrong value", id)
			}
		}
	}
}

// TestVarSplitMigration fills one initial segment's hash subtree with
// variable records so it must split repeatedly, checking no blob-backed
// record is lost or corrupted by migration (which copies slot words only).
func TestVarSplitMigration(t *testing.T) {
	tbl := newTestTable(t, 64<<20, Options{InitialDepth: 1})
	inserted := map[int]bool{}
	for i, done := 0, 0; done < slotsPerSegment+300 && i < 1<<22; i++ {
		k := varKey(i, 16+i%64)
		pk := tbl.probeBytes(k)
		if pk.parts.DirIndex(1) != 0 {
			continue
		}
		if err := tbl.InsertB(k, varVal(i, 48)); err != nil {
			t.Fatalf("InsertB %d: %v", i, err)
		}
		inserted[i] = true
		done++
	}
	if s := tbl.Stats(); s.Splits == 0 {
		t.Fatal("fill never split")
	}
	for i := range inserted {
		v, ok := tbl.GetB(varKey(i, 16+i%64))
		if !ok || !bytes.Equal(v, varVal(i, 48)) {
			t.Fatalf("record %d damaged by split (ok=%v)", i, ok)
		}
	}
}

func BenchmarkVarInsertB(b *testing.B) {
	tbl := newTestTable(b, 1<<30, Options{})
	b.ResetTimer()
	var k, v []byte
	for i := 0; i < b.N; i++ {
		k = append(k[:0], varKey(i, 16+i%100)...)
		v = append(v[:0], varVal(i, 16+i%100)...)
		if err := tbl.InsertB(k, v); err != nil {
			b.Fatal(err)
		}
	}
}
