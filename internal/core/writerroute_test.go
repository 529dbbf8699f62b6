package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dash/internal/pmem"
)

// Writer route validation tests. A writer routes from the DRAM directory
// cache, locks the key's bucket pair and checks the locked segment's mirrored
// header claim (lockOwner): these tests pin what a write costs (no PM read
// but a blob's key, and exactly the stores the protocol persists), that every
// stale route is caught by the claim check on
// all six write entry points, that a leaked split sibling — whose header
// still claims half a range — is never routed to, and that concurrent
// histories through hundreds of splits end in the oracle's state.

// pmLines returns what op charged p: read lines, written lines, flushed lines
// and fences, in that order.
func pmLines(p *pmem.Pool, op func()) [4]uint64 {
	b := p.Stats()
	op()
	a := p.Stats()
	return [4]uint64{a.ReadLines - b.ReadLines, a.WriteLines - b.WriteLines, a.FlushedLines - b.FlushedLines, a.Fences - b.Fences}
}

// readLines returns how many PM lines op read from p (charged reads only).
func readLines(p *pmem.Pool, op func()) uint64 { return pmLines(p, op)[0] }

// lineSpan is the number of cachelines the n bytes at a touch.
func lineSpan(a pmem.Addr, n int) uint64 {
	return (uint64(a)+uint64(n)-1)/pmem.CachelineSize - uint64(a)/pmem.CachelineSize + 1
}

// blobOf returns the blob address of the indirect record stored under pk on
// the quiescent table.
func blobOf(t *testing.T, tbl *Table, pk probeKey) pmem.Addr {
	t.Helper()
	kv, _, found, _ := mirSegSearch(tbl.vlog, tbl.mirror(tbl.cache.route(pk.parts)), &pk, true)
	if !found || !recIsIndirect(kv.Key) {
		t.Fatalf("record %x: found=%v, want an indirect record", pk.parts.Hash, found)
	}
	return recBlobAddr(kv.Key)
}

// TestWriterReadCharges: on a quiet table with the cost model off, an Insert,
// an in-place Update and a Delete of an inline record read no PM line at all
// — route, lock, claim, duplicate check, fingerprint probe and placement are
// all answered by the mirror, whatever fingerprints collide — a writer that
// finds an indirect record reads exactly the key lines of its blob (not the
// value: a writer wants none), and 10k mixed writes read no PM directory line.
func TestWriterReadCharges(t *testing.T) {
	tbl := newTestTable(t, 64<<20, Options{InitialDepth: 2})
	defer tbl.Close()
	p := tbl.pool

	for k := uint64(1); k <= 400; k++ {
		if n := readLines(p, func() {
			if err := tbl.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("Insert(%d) read %d PM lines, want 0", k, n)
		}
		if n := readLines(p, func() {
			if ok, err := tbl.Update(k, k+1); !ok || err != nil {
				t.Fatalf("Update(%d) = %v, %v", k, ok, err)
			}
		}); n != 0 {
			t.Fatalf("Update(%d) read %d PM lines, want 0", k, n)
		}
		if k%2 == 0 {
			if n := readLines(p, func() {
				if !tbl.Delete(k) {
					t.Fatalf("Delete(%d) reported missing", k)
				}
			}); n != 0 {
				t.Fatalf("Delete(%d) read %d PM lines, want 0", k, n)
			}
		}
	}

	// Indirect records: the probe's one PM dereference is the candidate
	// blob's header + key. A copy-on-write UpdateB also appends a blob, whose
	// bump pointer is DRAM: the append reads nothing.
	for i := uint64(0); i < 200; i++ {
		key, klen := routeKeyB(i), len(routeKeyB(i))
		if err := tbl.InsertB(key, routeValB(i, 0)); err != nil {
			t.Fatal(err)
		}
		want := lineSpan(blobOf(t, tbl, tbl.probeBytes(key)), pmem.BlobHeaderSize+klen)
		if n := readLines(p, func() {
			if ok, err := tbl.UpdateB(key, routeValB(i, 1)); !ok || err != nil {
				t.Fatalf("UpdateB(%d) = %v, %v", i, ok, err)
			}
		}); n != want {
			t.Fatalf("UpdateB(%d) read %d PM lines, want its blob's %d key lines", i, n, want)
		}
		want = lineSpan(blobOf(t, tbl, tbl.probeBytes(key)), pmem.BlobHeaderSize+klen)
		if n := readLines(p, func() {
			if !tbl.DeleteB(key) {
				t.Fatalf("DeleteB(%d) reported missing", i)
			}
		}); n != want {
			t.Fatalf("DeleteB(%d) read %d PM lines, want its blob's %d key lines", i, n, want)
		}
	}

	// Grow past several splits, then make any PM directory read fatal: with
	// the root's directory pointer nulled, a walk of the PM directory would
	// dereference address 0 and panic. Delete-then-reinsert of one key always
	// finds the slot it just freed, so no split can start.
	const n = 20000
	base := uint64(1) << 32
	for k := base; k < base+n; k++ {
		if err := tbl.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	count, splits, misses := tbl.Count(), tbl.met.splits.Total(), tbl.cache.misses.Total()
	dirWord := rootAddr.Add(rootOffDir)
	dir := p.QuietLoadU64(dirWord)
	p.QuietStoreU64(dirWord, 0)
	func() {
		defer func() {
			p.QuietStoreU64(dirWord, dir)
			if r := recover(); r != nil {
				t.Fatalf("a write consulted the PM directory: %v", r)
			}
		}()
		rng := rand.New(rand.NewSource(1))
		for writes := 0; writes < 10000; {
			k := base + uint64(rng.Intn(n))
			if rng.Intn(2) == 0 {
				if ok, err := tbl.Update(k, k^0x5A5A); !ok || err != nil {
					t.Fatalf("Update(%d) = %v, %v", k, ok, err)
				}
				writes++
				continue
			}
			if !tbl.Delete(k) {
				t.Fatalf("Delete(%d) reported missing", k)
			}
			if err := tbl.Insert(k, k); err != nil {
				t.Fatalf("Insert(%d): %v", k, err)
			}
			writes += 2
		}
	}()
	if tbl.met.splits.Total() != splits || tbl.cache.misses.Total() != misses {
		t.Fatalf("mixed writes split (%d→%d) or repaired a route (%d→%d)",
			splits, tbl.met.splits.Total(), misses, tbl.cache.misses.Total())
	}
	if got := tbl.Count(); got != count {
		t.Fatalf("Count = %d, want %d", got, count)
	}
}

// TestWriterWriteCharges pins a write's PM stores the way TestWriterReadCharges
// pins its reads: on a quiet table with the cost model off an Insert of an
// inline record, an in-place Update and a Delete each write one line, their
// record's, and persist it with one flush and one fence. With no lock word in
// PM every line an operation changes is a store the
// protocol needs, which gives the second half its oracle: over a mixed
// history — displacement, stash spill, copy-on-write, representation
// conversion, splits — the cachelines of the pool whose bytes an operation
// changed are never more than the write lines it was charged (plus, for an
// operation that ran a split, the flushed lines: the unpublished sibling is
// charged by its publishing flush). A record store left quiet fails it.
func TestWriterWriteCharges(t *testing.T) {
	tbl := newTestTable(t, 64<<20, Options{InitialDepth: 2})
	defer tbl.Close()
	p := tbl.pool
	for k := uint64(1); k <= 400; k++ {
		got := pmLines(p, func() {
			if err := tbl.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		})
		if got != [4]uint64{0, 1, 1, 1} {
			t.Fatalf("Insert(%d) charged read/write/flush/fence = %v, want [0 1 1 1]", k, got)
		}
		if got := pmLines(p, func() {
			if ok, err := tbl.Update(k, k+1); !ok || err != nil {
				t.Fatalf("Update(%d) = %v, %v", k, ok, err)
			}
		}); got != [4]uint64{0, 1, 1, 1} {
			t.Fatalf("Update(%d) charged read/write/flush/fence = %v, want [0 1 1 1]", k, got)
		}
		if k%2 == 0 {
			if got := pmLines(p, func() {
				if !tbl.Delete(k) {
					t.Fatalf("Delete(%d) reported missing", k)
				}
			}); got != [4]uint64{0, 1, 1, 1} {
				t.Fatalf("Delete(%d) charged read/write/flush/fence = %v, want [0 1 1 1]", k, got)
			}
		}
	}

	// The oracle. changedLines diffs the pool's allocated prefix against a
	// shadow copy, line by line, and brings the shadow up to date.
	shadow := make([]byte, p.Size())
	changedLines := func() (n uint64) {
		// From the root line (the pool's first) to the allocator's frontier.
		end := p.QuietLoadU64(rootAddr.Add(rootOffAllocNxt)) - uint64(rootAddr)
		cur := p.QuietBytes(rootAddr, end)
		const page = 64 * pmem.CachelineSize
		for off := uint64(0); off < end; off += page {
			pe := min(off+page, end)
			if bytes.Equal(cur[off:pe], shadow[off:pe]) {
				continue
			}
			for l := off; l < pe; l += pmem.CachelineSize {
				if le := min(l+pmem.CachelineSize, pe); !bytes.Equal(cur[l:le], shadow[l:le]) {
					n++
					copy(shadow[l:le], cur[l:le])
				}
			}
		}
		return n
	}
	changedLines()

	rng := rand.New(rand.NewSource(21))
	const keys = 6000
	var displaced, spilled, cow, converted int
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(keys)) + 1000
		var kb [8]byte
		binary.LittleEndian.PutUint64(kb[:], k)
		vkey := routeKeyB(k)
		pk := tbl.probeU64(k)
		mir := tbl.mirror(tbl.cache.route(pk.parts))
		b, b2 := homePair(pk.parts)
		pairFull := bucketFreeSlots(mir, b) == 0 && bucketFreeSlots(mir, b2) == 0
		old, _, present, _ := mirSegSearch(tbl.vlog, mir, &pk, true)

		kind := ""
		before, splits := p.Stats(), tbl.met.splits.Total()
		switch r := rng.Intn(100); {
		case r < 40:
			kind = "Insert"
			if err := tbl.Insert(k, k); err == nil && pairFull && tbl.met.splits.Total() == splits {
				if _, loc, _, _ := mirSegSearch(tbl.vlog, mir, &pk, true); loc.inStash() {
					spilled++
				} else {
					displaced++
				}
			} else if err != nil && !errors.Is(err, ErrKeyExists) {
				t.Fatal(err)
			}
		case r < 55:
			kind = "InsertB"
			if err := tbl.InsertB(vkey, routeValB(k, 0)); err != nil && !errors.Is(err, ErrKeyExists) {
				t.Fatal(err)
			}
		case r < 65:
			kind = "Update"
			if _, err := tbl.Update(k, uint64(i)); err != nil {
				t.Fatal(err)
			}
			if present && recIsIndirect(old.Key) {
				cow++
			}
		case r < 75:
			kind = "UpdateB (copy-on-write)"
			if ok, err := tbl.UpdateB(vkey, routeValB(k, uint64(i))); err != nil {
				t.Fatal(err)
			} else if ok {
				cow++
			}
		case r < 82:
			kind = "UpdateB (converting)"
			if _, err := tbl.UpdateB(kb[:], routeValB(k, uint64(i))); err != nil {
				t.Fatal(err)
			}
			if present && !recIsIndirect(old.Key) {
				converted++
			}
		case r < 92:
			kind = "Delete"
			tbl.Delete(k)
		default:
			kind = "DeleteB"
			tbl.DeleteB(vkey)
		}
		st := p.Stats().Sub(before)
		bound := st.WriteLines
		if tbl.met.splits.Total() != splits {
			bound += st.FlushedLines
		}
		if n := changedLines(); n > bound {
			t.Fatalf("op %d, %s of key %d: %d cachelines changed, %d write lines charged (%d flushed, split: %v)",
				i, kind, k, n, st.WriteLines, st.FlushedLines, tbl.met.splits.Total() != splits)
		}
	}
	if tbl.met.splits.Total() == 0 || displaced == 0 || spilled == 0 || cow == 0 || converted == 0 {
		t.Fatalf("history ran %d splits, %d displacements, %d stash spills, %d copy-on-write updates, %d conversions: want some of each",
			tbl.met.splits.Total(), displaced, spilled, cow, converted)
	}
}

// TestRuntimeReadsNoPM pins what the charge tests above pin per operation
// for a whole running table: outside recovery, PM is read only for blob
// payloads. On a model-off table grown from two segments, a 20k-op mixed u64
// history — inserts, duplicate inserts, updates, deletes, hits and misses —
// runs through splits and doublings while a second goroutine issues negative
// Gets the whole time, so readers meet publishes in flight and take the
// repair path; the pool's ReadLines must not move at all. A variable-length
// history then reads, per operation, exactly the lines of the one blob its
// probe dereferences: the whole blob for a hit, the key lines for a writer
// that found its key, nothing for a miss.
func TestRuntimeReadsNoPM(t *testing.T) {
	tbl := newTestTable(t, 64<<20, Options{InitialDepth: 1})
	defer tbl.Close()
	p := tbl.pool
	before := p.Stats().ReadLines

	var stop atomic.Bool
	negatives := make(chan uint64)
	go func() {
		n := uint64(0)
		for k := uint64(1) << 62; !stop.Load(); k++ {
			if _, ok := tbl.Get(k); ok {
				t.Errorf("negative Get(%#x) found a key never inserted", k)
				break
			}
			n++
		}
		negatives <- n
	}()
	rng := rand.New(rand.NewSource(26))
	live := make(map[uint64]uint64)
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(16000))
		v, present := live[k]
		switch r := rng.Intn(10); {
		case r < 5:
			err := tbl.Insert(k, k+uint64(i))
			if present && !errors.Is(err, ErrKeyExists) || !present && err != nil {
				t.Fatalf("op %d: Insert(%d) = %v, present %v", i, k, err, present)
			}
			if !present {
				live[k] = k + uint64(i)
			}
		case r < 7:
			if ok, err := tbl.Update(k, uint64(i)); ok != present || err != nil {
				t.Fatalf("op %d: Update(%d) = %v, %v; present %v", i, k, ok, err, present)
			}
			if present {
				live[k] = uint64(i)
			}
		case r < 8:
			if tbl.Delete(k) != present {
				t.Fatalf("op %d: Delete(%d) disagrees with presence %v", i, k, present)
			}
			delete(live, k)
		default:
			if got, ok := tbl.Get(k); ok != present || got != v {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", i, k, got, ok, v, present)
			}
		}
	}
	stop.Store(true)
	negs := <-negatives
	splits, depth := tbl.met.splits.Total(), tbl.GlobalDepth()
	if splits < 4 || depth < 2 {
		t.Fatalf("history ran %d splits to global depth %d, want >= 4 splits and a doubling", splits, depth)
	}
	if n := p.Stats().ReadLines - before; n != 0 {
		t.Fatalf("a u64 history (%d splits, depth %d, %d concurrent negative Gets, %d read repairs) read %d PM lines, want 0",
			splits, depth, negs, tbl.filters.misses.Total(), n)
	}
	t.Logf("%d splits to depth %d; %d concurrent negative Gets, %d of them repaired", splits, depth, negs, tbl.filters.misses.Total())

	// Variable-length records: each op's expected charge comes from the
	// blob its key holds on the quiescent table before the op.
	vals := make(map[uint64][]byte)
	splits = tbl.met.splits.Total()
	for i := 0; i < 6000; i++ {
		id := uint64(rng.Intn(3000))
		key := routeKeyB(id)
		pk := tbl.probeBytes(key)
		old, present := vals[id]
		keyLines, blobLines := uint64(0), uint64(0)
		if present {
			blob := blobOf(t, tbl, pk)
			keyLines = lineSpan(blob, pmem.BlobHeaderSize+len(key))
			blobLines = lineSpan(blob, pmem.BlobHeaderSize+len(key)+len(old))
		}
		var want uint64
		got := readLines(p, func() {
			switch r := rng.Intn(10); {
			case r < 4:
				want = keyLines // a duplicate's compare
				nv := routeValB(id, uint64(i))
				if err := tbl.InsertB(key, nv); present != errors.Is(err, ErrKeyExists) || !present && err != nil {
					t.Fatalf("op %d: InsertB(%q) = %v, present %v", i, key, err, present)
				}
				if !present {
					vals[id] = nv
				}
			case r < 6:
				want = keyLines
				nv := routeValB(id, uint64(i))
				if ok, err := tbl.UpdateB(key, nv); ok != present || err != nil {
					t.Fatalf("op %d: UpdateB(%q) = %v, %v; present %v", i, key, ok, err, present)
				}
				if present {
					vals[id] = nv
				}
			case r < 7:
				want = keyLines
				if tbl.DeleteB(key) != present {
					t.Fatalf("op %d: DeleteB(%q) disagrees with presence %v", i, key, present)
				}
				delete(vals, id)
			default:
				want = blobLines
				if v, ok := tbl.GetB(key); ok != present || !bytes.Equal(v, old) {
					t.Fatalf("op %d: GetB(%q) = %x,%v want %x,%v", i, key, v, ok, old, present)
				}
			}
		})
		if got != want {
			t.Fatalf("op %d on %q (present %v) read %d PM lines, want %d: only its blob's", i, key, present, got, want)
		}
	}
	if tbl.met.splits.Total() == splits {
		t.Fatal("the variable-length history ran no split")
	}
}

// routeFixture is a table grown through splits and doublings holding both
// inline u64 records and indirect []byte records, with their oracle.
type routeFixture struct {
	tbl  *Table
	u    map[uint64]uint64
	b    map[string][]byte
	next uint64
}

func routeKeyB(i uint64) []byte { return []byte(fmt.Sprintf("route-key-%06d", i)) }
func routeValB(i, gen uint64) []byte {
	return bytes.Repeat([]byte{byte(i), byte(gen)}, 8+int(i%24))
}

// grow inserts one u64 and one []byte record per step until done reports
// true.
func (f *routeFixture) grow(t *testing.T, done func() bool) {
	t.Helper()
	for !done() {
		i := f.next
		f.next++
		if err := f.tbl.Insert(i, i*7+3); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		f.u[i] = i*7 + 3
		if err := f.tbl.InsertB(routeKeyB(i), routeValB(i, 0)); err != nil {
			t.Fatalf("insertB %d: %v", i, err)
		}
		f.b[string(routeKeyB(i))] = routeValB(i, 0)
	}
}

// verify checks the oracle through the read path and the exact Count, and —
// the point of these tests — that every record physically lives in the
// segment the PM directory routes its key to: Verify's view = PM directory,
// claims partitioning it, and every record claimed by its segment.
func (f *routeFixture) verify(t *testing.T) {
	t.Helper()
	tbl := f.tbl
	for k, v := range f.u {
		if got, ok := tbl.Get(k); !ok || got != v {
			t.Fatalf("Get(%d) = %d,%v want %d,true", k, got, ok, v)
		}
	}
	for k, v := range f.b {
		if got, ok := tbl.GetB([]byte(k)); !ok || !bytes.Equal(got, v) {
			t.Fatalf("GetB(%q) = %x,%v want %x,true", k, got, ok, v)
		}
	}
	if got, want := tbl.Count(), int64(len(f.u)+len(f.b)); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	requireVerified(t, tbl)
}

// writeAllSix drives every write entry point, each operation over the
// routes stale installs while the change that makes them current is in
// flight (behindPublish): an op whose route is stale must fail the claim
// check, wait the change out, retry and land in the owning segment, and each
// entry point must meet at least one such route.
func (f *routeFixture) writeAllSix(t *testing.T, fresh int, stale func() func()) {
	t.Helper()
	tbl := f.tbl
	batch := func(name string, each func(op func(func()))) {
		t.Helper()
		met := false
		each(func(op func()) { met = behindPublish(tbl, stale, op) || met })
		if !met {
			t.Errorf("%s over stale routes failed no claim check", name)
		}
	}
	batch("Update", func(run func(func())) {
		for k := range f.u {
			run(func() {
				if ok, err := tbl.Update(k, k+100); !ok || err != nil {
					t.Fatalf("stale-route Update(%d) = %v, %v", k, ok, err)
				}
			})
			f.u[k] = k + 100
		}
	})
	batch("UpdateB", func(run func(func())) {
		for i := uint64(0); i < f.next; i++ {
			k := routeKeyB(i)
			run(func() {
				if ok, err := tbl.UpdateB(k, routeValB(i, 1)); !ok || err != nil {
					t.Fatalf("stale-route UpdateB(%q) = %v, %v", k, ok, err)
				}
			})
			f.b[string(k)] = routeValB(i, 1)
		}
	})
	base := uint64(1) << 40
	batch("Insert", func(run func(func())) {
		for k := base; k < base+uint64(fresh); k++ {
			run(func() {
				if err := tbl.Insert(k, k); err != nil {
					t.Fatalf("stale-route Insert(%d): %v", k, err)
				}
			})
			f.u[k] = k
		}
	})
	batch("InsertB", func(run func(func())) {
		for i := base; i < base+uint64(fresh); i++ {
			run(func() {
				if err := tbl.InsertB(routeKeyB(i), routeValB(i, 2)); err != nil {
					t.Fatalf("stale-route InsertB(%d): %v", i, err)
				}
			})
			f.b[string(routeKeyB(i))] = routeValB(i, 2)
		}
	})
	batch("Delete", func(run func(func())) {
		for k := range f.u {
			if k%2 == 0 {
				run(func() {
					if !tbl.Delete(k) {
						t.Fatalf("stale-route Delete(%d) reported missing", k)
					}
				})
				delete(f.u, k)
			}
		}
	})
	batch("DeleteB", func(run func(func())) {
		for i := uint64(0); i < f.next; i += 2 {
			run(func() {
				if !tbl.DeleteB(routeKeyB(i)) {
					t.Fatalf("stale-route DeleteB(%d) reported missing", i)
				}
			})
			delete(f.b, string(routeKeyB(i)))
		}
	})
}

func newRouteFixture(t *testing.T) *routeFixture {
	t.Helper()
	return &routeFixture{tbl: newTestTable(t, 128<<20, Options{}),
		u: make(map[uint64]uint64), b: make(map[string][]byte)}
}

// TestStaleViewAllWriters: a whole view from two doublings ago — every route
// in it may name a segment that has split, twice — under all six writers.
func TestStaleViewAllWriters(t *testing.T) {
	f := newRouteFixture(t)
	defer f.tbl.Close()
	f.grow(t, func() bool { return f.tbl.GlobalDepth() >= 3 })
	stale := staleView(f.tbl, f.tbl.cache.view.Load())
	f.grow(t, func() bool { return f.tbl.GlobalDepth() >= 5 })
	f.writeAllSix(t, 64, stale)
	f.verify(t)
}

// TestMovedHalfAllWriters: the shape an operation meets between a publish's
// claim narrowing and its view write-through — same directory, but the
// entries of every half moved by the last dozen splits still name the old
// segment, whose header no longer claims those keys — under all six writers.
func TestMovedHalfAllWriters(t *testing.T) {
	f := newRouteFixture(t)
	defer f.tbl.Close()
	tbl := f.tbl
	f.grow(t, func() bool { return tbl.GlobalDepth() >= 5 })
	v := tbl.cache.view.Load()
	old := make([]*segDesc, len(v.entries))
	for i := range old {
		old[i] = v.entries[i].Load()
	}
	s0 := tbl.met.splits.Total()
	f.grow(t, func() bool { return tbl.met.splits.Total() >= s0+12 })
	moved := 0
	stale := func() func() {
		if tbl.cache.view.Load() != v {
			t.Fatal("directory doubled; the entry snapshot no longer fits the view")
		}
		cur := make([]*segDesc, len(v.entries))
		moved = 0
		for i := range old {
			// Only entries whose segment changed: the half that stayed put
			// keeps its (correct) route.
			if cur[i] = v.entries[i].Load(); cur[i] != old[i] {
				v.entries[i].Store(old[i])
				moved++
			}
		}
		return func() {
			for i := range cur {
				v.entries[i].Store(cur[i])
			}
		}
	}
	stale()()
	if moved == 0 {
		t.Fatal("no directory entry moved between the snapshot and the writes")
	}
	f.writeAllSix(t, 500, stale)
	f.verify(t)
}

// leakSiblingByCrash inserts keys from *next on (insertUntilCrash: recorded
// in acked) until a split has made its sibling durable, simulates power loss
// at the next flush — before the first directory entry flips — and reopens
// the image. That is the one way left to make a segment whose header claims
// a range nothing routes to it: a split that rolls back at run time recycles
// its sibling's block. The sibling's persist is the one whole-segment flush
// a running table issues, and its address is the sibling. Returns the
// reopened table and the leaked segment.
func leakSiblingByCrash(t *testing.T, pool *pmem.Pool, tbl *Table, next *uint64, acked map[uint64]uint64) (*Table, pmem.Addr) {
	t.Helper()
	var leaked pmem.Addr
	pool.SetFlushHook(func(a pmem.Addr, n uint64) {
		switch {
		case !leaked.IsNull():
			panic(crashNow{})
		case n == segmentSize:
			leaked = a
		}
	})
	before := len(acked)
	crashed := insertUntilCrash(t, tbl, *next, 1<<20, acked)
	pool.SetFlushHook(nil)
	if !crashed {
		t.Fatal("no split reached its sibling's persist")
	}
	pool.Crash()
	*next += uint64(len(acked) - before) // the key in flight at the crash is absent again
	reopened, err := Open(pool)
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	if l, _ := segMeta(pool, leaked); l == 0 {
		t.Fatal("leaked sibling has no claim; the test would prove nothing")
	}
	return reopened, leaked
}

// TestLeakedSiblingNeverRouted crashes a split between its sibling's persist
// and the first entry flip, which leaks a sibling whose header still claims
// the upper half of the old segment's range. The claim check trusts headers,
// so it matters that nothing can ever propose the leaked segment: no
// directory entry and no cache entry names it, so it has no descriptor, no
// mirror and therefore no lock to take, and none of its bytes ever changes
// again, whatever runs afterwards.
func TestLeakedSiblingNeverRouted(t *testing.T) {
	pool, err := pmem.NewPool(pmem.Options{Size: 4 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[uint64]uint64)
	var k uint64
	tbl, leaked := leakSiblingByCrash(t, pool, tbl, &k, acked)
	verifyAtTeardown(t, tbl)
	defer tbl.Close()
	// A bucket lock is a word of the segment's mirror, and a mirror hangs off
	// a descriptor: a segment without one cannot be locked. What an operation
	// could still do to the leaked block is store into it.
	if tbl.cache.descs[leaked] != nil {
		t.Fatal("the leaked sibling has a registered descriptor after Open")
	}
	before := string(pool.QuietBytes(leaked, segmentSize))

	// Everything the table can do, including the retried split of the same
	// segment and further doublings.
	for end := k + 30000; k < end; k++ {
		if err := tbl.Insert(k, k+1); err != nil {
			t.Fatalf("insert %d after the crash: %v", k, err)
		}
		acked[k] = k + 1
	}
	for key := range acked {
		switch key % 3 {
		case 0:
			if ok, err := tbl.Update(key, key+2); !ok || err != nil {
				t.Fatalf("Update(%d) = %v, %v", key, ok, err)
			}
			acked[key] = key + 2
		case 1:
			if !tbl.Delete(key) {
				t.Fatalf("Delete(%d) reported missing", key)
			}
			delete(acked, key)
		}
	}
	for key, want := range acked {
		if v, ok := tbl.Get(key); !ok || v != want {
			t.Fatalf("Get(%d) = %d,%v want %d,true", key, v, ok, want)
		}
	}
	if got := tbl.Count(); got != int64(len(acked)) {
		t.Fatalf("Count = %d, want %d", got, len(acked))
	}
	if string(pool.QuietBytes(leaked, segmentSize)) != before {
		t.Fatal("an operation stored into the leaked sibling")
	}
}

// TestWriterHistoryThroughSplits: 4 writers (each with an exact per-key
// oracle over its own keys) and 2 readers over a table that starts with two
// segments and is forced through ≥ 200 splits and ≥ 3 doublings. Every route
// a writer takes is validated by the claim check alone while segments split
// underneath it. Meant for -race.
func TestWriterHistoryThroughSplits(t *testing.T) {
	const (
		writers   = 4
		readers   = 2
		perWriter = 40000
	)
	tbl := newTestTable(t, 256<<20, Options{InitialDepth: 1})
	defer tbl.Close()
	val := func(key, gen uint64) uint64 { return key<<16 | gen&0xFFFF }

	var wg, rwg sync.WaitGroup
	var done atomic.Bool
	oracles := make([]map[uint64]uint64, writers)
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(seed int64) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !done.Load() {
				key := uint64(rng.Intn(writers))<<32 | uint64(rng.Intn(perWriter))
				if v, ok := tbl.Get(key); ok && v>>16 != key {
					t.Errorf("reader saw value %#x under key %#x", v, key)
					return
				}
			}
		}(int64(r))
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			oracle := make(map[uint64]uint64, perWriter)
			oracles[w] = oracle
			base := uint64(w) << 32
			for i := uint64(0); i < perWriter; i++ {
				key := base | i
				if err := tbl.Insert(key, val(key, 0)); err != nil {
					t.Errorf("writer %d: Insert(%#x): %v", w, key, err)
					return
				}
				oracle[key] = val(key, 0)
				// One update or delete of an earlier key of ours per insert.
				prev := base | uint64(rng.Intn(int(i)+1))
				_, live := oracle[prev]
				switch {
				case !live:
					if err := tbl.Insert(prev, val(prev, i)); err != nil {
						t.Errorf("writer %d: re-Insert(%#x): %v", w, prev, err)
						return
					}
					oracle[prev] = val(prev, i)
				case rng.Intn(4) == 0:
					if !tbl.Delete(prev) {
						t.Errorf("writer %d: Delete(%#x) reported missing", w, prev)
						return
					}
					delete(oracle, prev)
				default:
					if ok, err := tbl.Update(prev, val(prev, i)); !ok || err != nil {
						t.Errorf("writer %d: Update(%#x) = %v, %v", w, prev, ok, err)
						return
					}
					oracle[prev] = val(prev, i)
				}
			}
		}(w)
	}
	wg.Wait()
	done.Store(true)
	rwg.Wait()
	if t.Failed() {
		return
	}

	var want int64
	for w, oracle := range oracles {
		want += int64(len(oracle))
		for i := uint64(0); i < perWriter; i++ {
			key := uint64(w)<<32 | i
			v, ok := tbl.Get(key)
			if wv, live := oracle[key]; ok != live || v != wv {
				t.Fatalf("Get(%#x) = %#x,%v want %#x,%v", key, v, ok, wv, live)
			}
		}
	}
	if got := tbl.Count(); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	if s, g := tbl.met.splits.Total(), tbl.GlobalDepth(); s < 200 || g < 4 {
		t.Fatalf("history saw %d splits and global depth %d, want >= 200 and >= 4", s, g)
	}
	requireVerified(t, tbl)
}
