package pmem

import (
	"sync"
	"testing"
)

// TestStatsConcurrentAccessors is the -race audit for the traffic counters:
// accessors on many goroutines race StatsSnapshot on another, exactly what a
// benchmark harness does mid-run. Every counter increment and read must be
// atomic for this to pass under -race, and no counter may go backwards.
func TestStatsConcurrentAccessors(t *testing.T) {
	pool, err := NewPool(Options{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const opsPerWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker owns a disjoint 64KiB region, touching many
			// distinct cachelines so all stats shards see traffic.
			base := Addr(CachelineSize) + Addr(w)<<16
			for i := 0; i < opsPerWorker; i++ {
				a := base.Add(uint64(i%1000) * 8)
				pool.WriteU64(a, uint64(i))
				_ = pool.LoadU64(a)
				pool.StoreU64(a, uint64(i)+1)
				pool.Persist(a, 8)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		prev := pool.Stats()
		for i := 0; i < 500; i++ {
			cur := pool.Stats()
			if cur.ReadLines < prev.ReadLines || cur.WriteLines < prev.WriteLines || cur.Fences < prev.Fences {
				t.Errorf("counters went backwards: %+v after %+v", cur, prev)
				return
			}
			prev = cur
		}
	}()
	wg.Wait()
	<-done

	// A quiesced window counts exactly what runs in it.
	before := pool.Stats()
	pool.WriteU64(Addr(CachelineSize), 1)
	pool.Persist(Addr(CachelineSize), 8)
	s := pool.Stats().Sub(before)
	if s.WriteLines != 1 || s.FlushedLines != 1 || s.Fences != 1 {
		t.Errorf("quiesced window = %+v, want 1 write line, 1 flushed line, 1 fence", s)
	}
}

func TestStatsSubSaturates(t *testing.T) {
	a := StatsSnapshot{ReadLines: 5, WriteLines: 10, FlushedLines: 1, Fences: 2}
	b := StatsSnapshot{ReadLines: 7, WriteLines: 3, FlushedLines: 1, Fences: 9}
	d := a.Sub(b)
	want := StatsSnapshot{ReadLines: 0, WriteLines: 7, FlushedLines: 0, Fences: 0}
	if d != want {
		t.Errorf("Sub = %+v, want %+v", d, want)
	}
}
