package core

import (
	"errors"
	"sync"
	"testing"

	"dash/internal/pmem"
)

func TestTableStats(t *testing.T) {
	tb := newTestTable(t, 16<<20, Options{})
	defer tb.Close()

	const n = 3000 // enough to force several splits from depth 1
	for i := uint64(0); i < n; i++ {
		if err := tb.Insert(i, i*3); err != nil {
			t.Fatal(err)
		}
	}

	st := tb.Stats()
	if st.Count != n || st.Count != tb.Count() {
		t.Errorf("Count = %d, want %d", st.Count, n)
	}
	if st.GlobalDepth != tb.GlobalDepth() {
		t.Errorf("GlobalDepth = %d, want %d", st.GlobalDepth, tb.GlobalDepth())
	}
	if st.Segments < 2 {
		t.Errorf("Segments = %d, want >= 2 after %d inserts", st.Segments, n)
	}
	if st.Segments > 1<<st.GlobalDepth {
		t.Errorf("Segments = %d exceeds directory capacity 2^%d", st.Segments, st.GlobalDepth)
	}
	if st.SlotCapacity != int64(st.Segments)*slotsPerSegment {
		t.Errorf("SlotCapacity = %d, want Segments×%d = %d", st.SlotCapacity, slotsPerSegment, int64(st.Segments)*slotsPerSegment)
	}
	if st.LoadFactor <= 0 || st.LoadFactor > 1 {
		t.Errorf("LoadFactor = %f, want in (0, 1]", st.LoadFactor)
	}
	want := float64(st.Count) / float64(st.SlotCapacity)
	if st.LoadFactor != want {
		t.Errorf("LoadFactor = %f, want %f", st.LoadFactor, want)
	}
	if st.StashRecords < 0 || st.StashRecords > st.Count {
		t.Errorf("StashRecords = %d out of range", st.StashRecords)
	}
	if st.StashShare < 0 || st.StashShare > 1 {
		t.Errorf("StashShare = %f, want in [0, 1]", st.StashShare)
	}
	if st.AllocatedBytes < uint64(st.Segments)*segmentSize {
		t.Errorf("AllocatedBytes = %d, want >= %d segments × %d", st.AllocatedBytes, st.Segments, segmentSize)
	}

	// Deletes are reflected.
	for i := uint64(0); i < 100; i++ {
		if !tb.Delete(i) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if got := tb.Stats().Count; got != n-100 {
		t.Errorf("Count after deletes = %d, want %d", got, n-100)
	}
}

// TestStatsRecordsFromMirrors: Stats counts records in the mirrors, not in
// the PM bitmaps, which keep a split's moved records until their buckets are
// next written. Right after a split, and after a clean reopen whose first
// touches dropped those records from the new mirrors by route, its record
// count is Count.
func TestStatsRecordsFromMirrors(t *testing.T) {
	pool, err := pmem.NewPool(pmem.Options{Size: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	insertThroughSplit(t, tbl)
	check := func(when string, tbl *Table) {
		t.Helper()
		n := tbl.Count() // first, for the reopened table: it finishes recovery
		if st := tbl.Stats(); st.Records != n || st.StashRecords > n {
			t.Fatalf("%s: Stats walks %d records, %d of them in stashes; Count is %d", when, st.Records, st.StashRecords, n)
		}
	}
	check("right after the split", tbl)
	tbl.Close()
	check("after a clean reopen", openTestTable(t, pool))
}

// TestTableStatsConcurrent exercises Stats against live writers under -race:
// the snapshot must stay lock-free, race-clean and internally sane while the
// table is mutating and splitting underneath it.
func TestTableStatsConcurrent(t *testing.T) {
	tb := newTestTable(t, 32<<20, Options{})
	defer tb.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) << 32
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := tb.Insert(base|i, i); err != nil {
					// Fast machines can exhaust the pool before the Stats
					// loop finishes; that ends this writer, not the test.
					if !errors.Is(err, ErrPoolFull) {
						t.Error(err)
					}
					return
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		st := tb.Stats()
		if st.Segments < 1 || st.SlotCapacity < int64(st.Segments) {
			t.Errorf("implausible snapshot: %+v", st)
			break
		}
	}
	close(stop)
	wg.Wait()
}
