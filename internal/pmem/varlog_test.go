package pmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// testLog builds a crash-tracked pool plus a VarLog rooted at the pool's
// second cacheline, with a trivial bump allocator for chunks.
func testLog(t *testing.T, poolSize, chunkSize uint64) (*Pool, *VarLog) {
	t.Helper()
	p, err := NewPool(Options{Size: poolSize, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	headAddr := Addr(CachelineSize)
	next := Addr(4 * CachelineSize)
	alloc := func(size uint64) (Addr, error) {
		a := (next + 255) &^ 255
		if uint64(a)+size > p.Size() {
			return Null, errors.New("test pool full")
		}
		next = a.Add(size)
		return a, nil
	}
	p.WriteU64(headAddr, 0)
	p.Persist(headAddr, 8)
	return p, NewVarLog(p, headAddr, chunkSize, alloc)
}

func TestVarLogRoundtrip(t *testing.T) {
	_, l := testLog(t, 1<<20, 0)
	type rec struct {
		a    Addr
		k, v []byte
	}
	var recs []rec
	for i := 0; i < 64; i++ {
		k := bytes.Repeat([]byte{byte(i + 1)}, 1+i*3%100)
		v := bytes.Repeat([]byte{byte(200 - i)}, i*7%200)
		a, err := l.Append(k, v)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		l.Commit(a)
		recs = append(recs, rec{a, k, v})
	}
	for i, r := range recs {
		klen, vlen := l.Lens(r.a)
		if klen != len(r.k) || vlen != len(r.v) {
			t.Fatalf("rec %d lens = (%d,%d), want (%d,%d)", i, klen, vlen, len(r.k), len(r.v))
		}
		if !l.KeyEquals(r.a, r.k, false) {
			t.Fatalf("rec %d key mismatch", i)
		}
		if l.KeyEquals(r.a, append([]byte{0}, r.k...), false) {
			t.Fatalf("rec %d matched a wrong key", i)
		}
		if got := l.QuietAppendValue(nil, r.a); !bytes.Equal(got, r.v) {
			t.Fatalf("rec %d value = %x, want %x", i, got, r.v)
		}
	}
	st := l.Stats()
	if st.LiveBlobs != 64 || st.LiveBytes == 0 {
		t.Fatalf("stats = %+v, want 64 live blobs", st)
	}
}

// TestVarLogU64Key: an 8-byte key compares as its little-endian encoding,
// and KeyEquals charges header+key, or the whole blob withValue.
func TestVarLogU64Key(t *testing.T) {
	p, l := testLog(t, 1<<20, 0)
	key := []byte{0xEF, 0xBE, 0xAD, 0xDE, 0x78, 0x56, 0x34, 0x12}
	a, err := l.Append(key, make([]byte, 100))
	if err != nil {
		t.Fatal(err)
	}
	l.Commit(a)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], 0x12345678DEADBEEF)
	for _, withValue := range []bool{false, true} {
		before := p.Stats()
		if !l.KeyEquals(a, buf[:], withValue) {
			t.Fatal("KeyEquals rejected the little-endian encoding")
		}
		got := p.Stats().Sub(before).ReadLines
		if want := lineSpan(a, BlobHeaderSize+8); !withValue && got != want {
			t.Errorf("KeyEquals charged %d lines, want header+key's %d", got, want)
		}
		if want := lineSpan(a, BlobHeaderSize+108); withValue && got != want {
			t.Errorf("KeyEquals withValue charged %d lines, want the blob's %d", got, want)
		}
	}
	binary.LittleEndian.PutUint64(buf[:], 0x12345678DEADBEF0)
	if l.KeyEquals(a, buf[:], false) {
		t.Fatal("KeyEquals matched a different key")
	}
	b, err := l.Append(key, []byte("value"))
	if err != nil {
		t.Fatal(err)
	}
	if got := l.QuietValueU64(b); got != 0x65756c6176 { // "value" zero-padded, LE
		t.Fatalf("ValueU64 = %#x", got)
	}
}

func TestVarLogTooLarge(t *testing.T) {
	_, l := testLog(t, 1<<20, 0)
	if _, err := l.Append(nil, nil); !errors.Is(err, ErrBlobTooLarge) {
		t.Fatalf("empty key: err = %v, want ErrBlobTooLarge", err)
	}
	if _, err := l.Append(make([]byte, MaxVarKeyLen+1), nil); !errors.Is(err, ErrBlobTooLarge) {
		t.Fatalf("oversized key: err = %v", err)
	}
	if _, err := l.Append([]byte("k"), make([]byte, MaxVarValueLen+1)); !errors.Is(err, ErrBlobTooLarge) {
		t.Fatalf("oversized value: err = %v", err)
	}
	if _, err := l.Append(make([]byte, MaxVarKeyLen), make([]byte, MaxVarValueLen)); err != nil {
		t.Fatalf("max-size blob rejected: %v", err)
	}
}

func TestVarLogFreeReuse(t *testing.T) {
	_, l := testLog(t, 1<<20, 0)
	a, err := l.Append([]byte("0123456789abcdef"), []byte("old-value-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	l.Commit(a)
	used := l.Stats()
	l.Free(a)
	if st := l.Stats(); st.FreeBytes == 0 || st.LiveBlobs != 0 {
		t.Fatalf("post-free stats = %+v", st)
	}
	// Same capacity class: the freed span must be reused.
	b, err := l.Append([]byte("fedcba9876543210"), []byte("new-value-byte5"))
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Fatalf("append after free went to %#x, want reuse of %#x", b, a)
	}
	l.Commit(b)
	if st := l.Stats(); st.FreeBytes != 0 || st.LiveBytes != used.LiveBytes {
		t.Fatalf("post-reuse stats = %+v, want live %d", st, used.LiveBytes)
	}
	if !l.KeyEquals(b, []byte("fedcba9876543210"), false) {
		t.Fatal("reused blob serves the old key")
	}
}

// TestVarLogEmptyValueStaysInBlob: a blob whose key ends 13 bytes into its
// last 16-byte unit, with an empty value, ends 3 bytes short of its capacity.
// Appending it into a freed span directly before a committed blob must store
// nothing past its key: the neighbour's header still reads back.
func TestVarLogEmptyValueStaysInBlob(t *testing.T) {
	_, l := testLog(t, 1<<20, 0)
	key := []byte("a-twenty-one-byte-key") // with the 8-byte header, 13 bytes into a unit
	a, err := l.Append(key, []byte("abc")) // capacity 32, as with an empty value
	if err != nil {
		t.Fatal(err)
	}
	l.Commit(a)
	nkey, nval := []byte("neighbour"), []byte("committed")
	b, err := l.Append(nkey, nval)
	if err != nil {
		t.Fatal(err)
	}
	l.Commit(b)
	if b != a.Add(blobCap(len(key), 0)) {
		t.Fatalf("neighbour at %#x, want directly after %#x", b, a)
	}
	l.Free(a)
	for _, value := range [][]byte{nil, {}} {
		c, err := l.Append(key, value)
		if err != nil {
			t.Fatal(err)
		}
		if c != a {
			t.Fatalf("append went to %#x, want reuse of %#x", c, a)
		}
		l.Commit(c)
		if klen, vlen := l.Lens(b); klen != len(nkey) || vlen != len(nval) {
			t.Fatalf("value %v: neighbour lens = (%d,%d), want (%d,%d)", value, klen, vlen, len(nkey), len(nval))
		}
		if !l.KeyEquals(b, nkey, true) || !bytes.Equal(l.QuietAppendValue(nil, b), nval) {
			t.Fatalf("value %v: neighbour no longer reads back", value)
		}
		if !l.KeyEquals(c, key, true) || len(l.QuietAppendValue(nil, c)) != 0 {
			t.Fatalf("value %v: the blob does not read back", value)
		}
		l.Free(c)
	}
}

func TestVarLogChunkRollover(t *testing.T) {
	_, l := testLog(t, 1<<20, 1024) // tiny chunks force the chain to grow
	var addrs []Addr
	for i := 0; i < 100; i++ {
		a, err := l.Append([]byte(fmt.Sprintf("key-%03d-padded-out", i)), make([]byte, 64))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		l.Commit(a)
		addrs = append(addrs, a)
	}
	if st := l.Stats(); st.ChunkBytes < 4*1024 {
		t.Fatalf("expected multiple chunks, got %+v", st)
	}
	for i, a := range addrs {
		if !l.KeyEquals(a, []byte(fmt.Sprintf("key-%03d-padded-out", i)), false) {
			t.Fatalf("blob %d unreadable after rollovers", i)
		}
	}
}

// recoverLog is RecoverChunks plus a full sweep: recovery with no concurrent
// traffic to stay out of the way of. It returns the recovered log.
func recoverLog(t *testing.T, p *Pool, referenced map[Addr]struct{}) *VarLog {
	t.Helper()
	l := NewVarLog(p, Addr(CachelineSize), 0, func(uint64) (Addr, error) {
		return Null, errors.New("no growth during recovery test")
	})
	if err := l.RecoverChunks(); err != nil {
		t.Fatal(err)
	}
	for s := l.SweepStart(); ; {
		if done, _ := s.Step(1024, referenced); done {
			return l
		}
	}
}

// TestVarLogRecover covers the sweep's classification: a referenced blob
// survives, and a blob no slot names — counted live by Commit or not — is
// reclaimed onto the free list, reusable without growing the chain.
func TestVarLogRecover(t *testing.T) {
	p, l := testLog(t, 1<<20, 0)
	kept, _ := l.Append([]byte("kept-key-0123456"), []byte("kept-val"))
	l.Commit(kept)
	orphan, _ := l.Append([]byte("orphan-key-01234"), []byte("orphan-val"))
	l.Commit(orphan)
	unpublished, _ := l.Append([]byte("unpublished-key0"), []byte("unpublished"))

	// Simulate the crash: everything unflushed reverts to media. Append
	// persists eagerly, so all three blobs survive; one is referenced.
	p.Crash()
	refs := map[Addr]struct{}{kept: {}}
	l2 := recoverLog(t, p, refs)
	st := l2.Stats()
	if st.LiveBlobs != 1 {
		t.Fatalf("recovered live blobs = %d, want 1 (the referenced one)", st.LiveBlobs)
	}
	wantFree := blobCap(16, 10) + blobCap(16, 11)
	if st.FreeBytes != wantFree {
		t.Fatalf("recovered free bytes = %d, want %d (orphan + unpublished)", st.FreeBytes, wantFree)
	}
	if err := l2.Verify(refs); err != nil {
		t.Fatal(err)
	}
	if !l2.KeyEquals(kept, []byte("kept-key-0123456"), false) {
		t.Fatal("referenced blob unreadable after recovery")
	}
	a, err := l2.Append([]byte("reuse-key-012345"), []byte("reuse-val0"))
	if err != nil {
		t.Fatal(err)
	}
	if a != orphan && a != unpublished {
		t.Fatalf("post-recovery append went to %#x, want a reclaimed span", a)
	}
}

// TestVarLogRecoverTornHeader: a blob allocated (frontier persisted) whose
// header never reached media is a hole of unknown length, with a referenced
// blob and an unreferenced one behind it. Recovery must bridge the hole with
// one free filler up to the referenced blob, keep that blob live and walk on
// past it; a second recovery of the image strides over the filler, reaches
// the same state and writes nothing.
func TestVarLogRecoverTornHeader(t *testing.T) {
	p, l := testLog(t, 1<<20, 0)
	a1, _ := l.Append([]byte("first-key-012345"), []byte("v1"))
	hole, err := l.allocBlob(64) // a torn append: the header never lands
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := l.Append([]byte("behind-the-hole"), []byte("v2"))
	a3, _ := l.Append([]byte("unreferenced-key"), []byte("v3"))
	p.Crash()

	refs := map[Addr]struct{}{a1: {}, a2: {}}
	for run := 1; run <= 2; run++ {
		img := p.Snapshot()
		l2 := recoverLog(t, p, refs)
		free := l2.FreeSpans()
		if st := l2.Stats(); st.LiveBlobs != 2 || !free[hole] || !free[a3] || st.FreeBytes != 64+blobCap(16, 2) {
			t.Fatalf("recovery %d: stats %+v, free %v; want a1 and a2 live, the 64-byte hole and a3 free", run, st, free)
		}
		if err := l2.Verify(refs); err != nil {
			t.Fatalf("recovery %d: %v", run, err)
		}
		if run == 2 && !bytes.Equal(img, p.Snapshot()) {
			t.Fatal("recovering a bridged image wrote PM")
		}
	}
}

// TestVarLogAppendRacesFlush is the -race regression for the byte-range
// store path on a crash-tracked pool: blobs are 16-aligned, so neighbours
// share cachelines, and one goroutine's Flush copies a line (writeBack) that
// another's Append is copying payload bytes into (QuietStoreBytes); the
// line's busy bit orders the two. Two appenders write small blobs back to
// back while two flushers
// sweep the log's lines; after a Crash every committed blob must read back.
func TestVarLogAppendRacesFlush(t *testing.T) {
	p, l := testLog(t, 1<<20, 0)
	const appenders, perAppender = 2, 2000
	type rec struct {
		a    Addr
		k, v []byte
	}
	recs := make([][]rec, appenders)
	stop := make(chan struct{})
	var flushers, writers sync.WaitGroup
	for f := 0; f < 2; f++ {
		flushers.Add(1)
		go func(f int) {
			defer flushers.Done()
			lo, hi := uint64(4*CachelineSize), p.Size()
			for a := lo + uint64(f)*4096; ; a += 2 * 4096 {
				select {
				case <-stop:
					return
				default:
				}
				if a+4096 > hi {
					a = lo + uint64(f)*4096
				}
				p.Flush(Addr(a), 4096)
			}
		}(f)
	}
	for w := 0; w < appenders; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < perAppender; i++ {
				k := []byte(fmt.Sprintf("k%d-%05d", w, i))
				v := bytes.Repeat([]byte{byte(i)}, 1+i%23)
				a, err := l.Append(k, v)
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				l.Commit(a)
				recs[w] = append(recs[w], rec{a, k, v})
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	flushers.Wait()

	p.Crash()
	for w := range recs {
		for _, r := range recs[w] {
			if !l.KeyEquals(r.a, r.k, false) {
				t.Fatalf("blob %#x: key lost after crash", r.a)
			}
			if got := l.QuietAppendValue(nil, r.a); !bytes.Equal(got, r.v) {
				t.Fatalf("blob %#x: value = %x, want %x", r.a, got, r.v)
			}
		}
	}
}
