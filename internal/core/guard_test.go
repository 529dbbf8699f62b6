package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dash/internal/epoch"
)

// The epoch-guard contract: an operation enters its guard only when its
// probe is about to read a blob (probeKey.pin), re-checking the slot it
// loaded the blob's address from before the announcement. The stress test
// is the -race proof that a reader never reads a blob that was freed and
// reused; the re-check's test changes the slot between the load and pin,
// which no stress run reliably hits; and holding every guard slot shows
// which operations need one.

// guardVal is the value the stress test stores under key i at version n:
// 32 bytes whatever n, so every copy-on-write update frees a blob of one
// size class, which the next update of any hot key reuses once reclaimed.
func guardVal(i, n int) []byte { return []byte(fmt.Sprintf("hot-%02d-value-%016d", i, n)) }

// TestGuardStressCOWReuse: readers GetBAppend a few hot indirect keys while
// updaters rewrite them copy-on-write with same-sized values, so the blobs
// the updates retire are freed and handed out again while readers probe.
// The updaters run until the record log has reused guardReuses freed blobs.
// Every read must return a value of its own key; run under -race, a read of
// a blob no guard protected is reported as a race with the append that
// reused it.
func TestGuardStressCOWReuse(t *testing.T) {
	const hot, updaters, readers, guardReuses = 8, 2, 2, 5000
	tbl := newTestTable(t, 32<<20, Options{})
	defer tbl.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("guard-stress-hot-key-%02d", i)) }
	for i := 0; i < hot; i++ {
		if err := tbl.InsertB(key(i), guardVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg, rg sync.WaitGroup
	deadline := time.Now().Add(10 * time.Second)
	var updates atomic.Int64
	for u := 0; u < updaters; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for n := 1; tbl.vlog.FreeHits.Total() < guardReuses && time.Now().Before(deadline); n++ {
				i := (n*updaters + u) % hot
				if ok, err := tbl.UpdateB(key(i), guardVal(i, n)); !ok || err != nil {
					t.Errorf("UpdateB(%d) = %v, %v", i, ok, err)
					return
				}
				updates.Add(1)
			}
		}(u)
	}
	var reads atomic.Int64
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			var buf []byte
			for n := r; !stop.Load(); n++ {
				i := n % hot
				v, ok := tbl.GetBAppend(buf[:0], key(i))
				if !ok || len(v) != len(guardVal(i, 0)) || !bytes.HasPrefix(v, guardVal(i, 0)[:7]) {
					t.Errorf("GetB(key %d) = %q, %v", i, v, ok)
					return
				}
				buf = v
				reads.Add(1)
			}
		}(r)
	}
	wg.Wait()
	stop.Store(true)
	rg.Wait()
	if hits := tbl.vlog.FreeHits.Total(); hits < guardReuses {
		t.Fatalf("%d updates in 10 s reused %d freed blobs, want %d: the test raced too little", updates.Load(), hits, guardReuses)
	}
	t.Logf("%d reads against %d copy-on-write updates", reads.Load(), updates.Load())
}

// TestGuardPinRecheck: pin, entering the guard, trusts the word 0 its probe
// loaded before only if the slot still holds it and is still live — a
// changed word 0 (a copy-on-write flip) or a cleared bit (a delete, a
// split's drop, which leave word 0 as it was) fails it — and, once the
// guard is held, trusts every word loaded after. A probe no operation began
// takes no guard.
func TestGuardPinRecheck(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{})
	defer tbl.Close()
	key := []byte("guard-pin-recheck-key")
	if err := tbl.InsertB(key, []byte("the value of the pinned record")); err != nil {
		t.Fatal(err)
	}
	d, loc, kv := locate(t, tbl, tbl.probeBytes(key))
	mir := d.mir.Load()
	w0, meta := mir.recWord(loc.bucket, loc.slot, 0), mir.word(loc.bucket, mirBkMeta)
	m := meta.Load()
	for _, c := range []struct {
		name   string
		change func()
	}{
		{"unchanged", nil},
		{"word 0 flipped", func() { w0.Store(kv.Key ^ 1<<4) }},
		{"slot cleared", func() { meta.Store(metaClearSlot(m, loc.slot)) }},
	} {
		pk := tbl.probeBytes(key)
		pk.em = tbl.em
		if c.change != nil {
			c.change()
		}
		ok := pk.pin(mir, loc.bucket, loc.slot, kv.Key)
		w0.Store(kv.Key)
		meta.Store(m)
		if ok != (c.change == nil) {
			t.Errorf("%s: pin = %v, want %v", c.name, ok, c.change == nil)
		}
		if pk.guard == 0 {
			t.Fatalf("%s: pin entered no guard", c.name)
		}
		if !pk.pin(mir, loc.bucket, loc.slot, 0) {
			t.Errorf("%s: pin re-checked a word loaded under the guard", c.name)
		}
		tbl.em.ExitSlot(pk.guard - 1)
	}
	if pk := tbl.probeBytes(key); !pk.pin(mir, loc.bucket, loc.slot, kv.Key) || pk.guard != 0 {
		t.Errorf("a probe no operation began: pin = false or guard %d entered", pk.guard)
	}
}

// TestGuardAllSlotsHeld holds every guard slot of the table's manager:
// inline Get, Insert, Update and Delete read no blob and still complete; an
// indirect GetB waits for a slot, and completes once one is released.
func TestGuardAllSlotsHeld(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{})
	defer tbl.Close()
	vkey, vval := []byte("guard-held-indirect-key"), []byte("guard-held-indirect-value")
	if err := tbl.InsertB(vkey, vval); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for k := uint64(0); k < n; k++ {
		if err := tbl.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	var held [epoch.MaxGuards]epoch.Guard
	for i := range held {
		held[i] = tbl.em.Enter()
	}
	defer func() {
		for _, g := range held[1:] {
			g.Exit()
		}
	}()
	for k := uint64(0); k < n; k++ {
		if v, ok := tbl.Get(k); !ok || v != k {
			t.Fatalf("Get(%d) = %d, %v", k, v, ok)
		}
		if ok, err := tbl.Update(k, k+1); !ok || err != nil {
			t.Fatalf("Update(%d) = %v, %v", k, ok, err)
		}
		if !tbl.Delete(k) {
			t.Fatalf("Delete(%d) missed", k)
		}
		if err := tbl.Insert(n+k, k); err != nil {
			t.Fatalf("Insert(%d): %v", n+k, err)
		}
	}
	got := make(chan []byte)
	go func() {
		v, _ := tbl.GetB(vkey)
		got <- v
	}()
	select {
	case v := <-got:
		t.Fatalf("GetB of an indirect record returned %q with every guard slot held", v)
	case <-time.After(50 * time.Millisecond):
	}
	held[0].Exit()
	select {
	case v := <-got:
		if !bytes.Equal(v, vval) {
			t.Fatalf("GetB = %q, want %q", v, vval)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("GetB did not complete after a guard slot was released")
	}
}
