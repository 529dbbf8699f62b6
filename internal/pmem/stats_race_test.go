package pmem

import (
	"sync"
	"testing"
)

// TestStatsConcurrentAccessors is the -race audit for the traffic counters:
// accessors on many goroutines race StatsSnapshot and ResetStats on another,
// exactly what a benchmark harness does mid-run. Every counter increment and
// read must be atomic for this to pass under -race.
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
			d := cur.Sub(prev)
			// Saturating Sub guarantees windows never wrap even across the
			// concurrent resets below.
			if d.ReadLines > 1<<40 || d.WriteLines > 1<<40 {
				t.Errorf("window delta wrapped: %+v", d)
				return
			}
			prev = cur
			if i%100 == 99 {
				pool.ResetStats()
				prev = StatsSnapshot{}
			}
		}
	}()
	wg.Wait()
	<-done

	// After the last reset the workers may already have finished, so only
	// sanity-check that a fresh quiesced window counts exactly what runs.
	pool.ResetStats()
	pool.WriteU64(Addr(CachelineSize), 1)
	pool.Persist(Addr(CachelineSize), 8)
	s := pool.Stats()
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
