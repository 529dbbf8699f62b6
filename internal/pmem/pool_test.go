package pmem

import (
	"sync"
	"testing"
)

func newTracked(t *testing.T, size uint64) *Pool {
	t.Helper()
	p, err := NewPool(Options{Size: size, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCrashDiscardsUnflushed is the core persistence contract: a store that
// was never flushed does not survive power loss, a persisted one does.
func TestCrashDiscardsUnflushed(t *testing.T) {
	p := newTracked(t, 4096)
	durable := Addr(CachelineSize)
	volatile := Addr(2 * CachelineSize)

	p.WriteU64(durable, 0x1111)
	p.Persist(durable, 8)
	p.WriteU64(volatile, 0x2222)

	if p.DirtyLines() == 0 {
		t.Fatal("expected dirty lines before crash")
	}
	p.Crash()
	if got := p.ReadU64(durable); got != 0x1111 {
		t.Errorf("persisted store lost: got %#x", got)
	}
	if got := p.ReadU64(volatile); got != 0 {
		t.Errorf("unflushed store survived crash: got %#x", got)
	}
	if p.DirtyLines() != 0 {
		t.Errorf("dirty lines after crash: %d", p.DirtyLines())
	}
}

// TestCrashThenReopen proves the full cycle the table's crash tests rely on:
// Snapshot captures only media state, and a pool reopened from it sees
// exactly the flushed stores.
func TestCrashThenReopen(t *testing.T) {
	p := newTracked(t, 4096)
	a, b := Addr(CachelineSize), Addr(2*CachelineSize)
	p.WriteU64(a, 42)
	p.Persist(a, 8)
	p.WriteU64(b, 43) // never flushed

	img := p.Snapshot()
	q, err := OpenSnapshot(img, Options{TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := q.ReadU64(a); got != 42 {
		t.Errorf("reopened pool lost persisted store: got %d", got)
	}
	if got := q.ReadU64(b); got != 0 {
		t.Errorf("reopened pool kept unflushed store: got %d", got)
	}
	// The reopened pool is fully functional.
	q.WriteU64(b, 7)
	q.Persist(b, 8)
	q.Crash()
	if got := q.ReadU64(b); got != 7 {
		t.Errorf("store after reopen lost: got %d", got)
	}
}

// TestQuietWritesStillCrashTracked: quiet accessors skip accounting but a
// store is a store for crash purposes.
func TestQuietWritesStillCrashTracked(t *testing.T) {
	p := newTracked(t, 4096)
	a := Addr(CachelineSize)
	p.QuietStoreU64(a, 99)
	if p.DirtyLines() == 0 {
		t.Fatal("quiet write not tracked as dirty")
	}
	p.Crash()
	if got := p.ReadU64(a); got != 0 {
		t.Errorf("unflushed quiet write survived: got %d", got)
	}
}

// TestStatsAccounting spot-checks the traffic counters the experiments use.
func TestStatsAccounting(t *testing.T) {
	p, err := NewPool(Options{Size: 4096})
	if err != nil {
		t.Fatal(err)
	}
	a := Addr(CachelineSize)
	p.WriteU64(a, 1)
	p.ReadU64(a)
	p.Persist(a, 8)
	s := p.Stats()
	if s.WriteLines != 1 || s.ReadLines != 1 || s.FlushedLines != 1 || s.Fences != 1 {
		t.Errorf("stats = %+v, want 1 of each", s)
	}
	// A 3-line span counts 3 lines per access.
	p.ResetStats()
	p.TouchWrite(a, 3*CachelineSize)
	if s := p.Stats(); s.WriteLines != 3 {
		t.Errorf("WriteLines = %d, want 3", s.WriteLines)
	}
}

// TestConcurrentAtomics exercises the atomic accessors from many goroutines
// under -race: the pool's words must behave like regular Go atomics.
func TestConcurrentAtomics(t *testing.T) {
	p, err := NewPool(Options{Size: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ctr := Addr(CachelineSize)
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				p.AddU64(ctr, 1)
			}
		}()
	}
	wg.Wait()
	if got := p.LoadU64(ctr); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestKVHelpers(t *testing.T) {
	p, err := NewPool(Options{Size: 4096})
	if err != nil {
		t.Fatal(err)
	}
	a := Addr(CachelineSize)
	p.StoreU64(a, 11)
	p.WriteValue(a, 22)
	if kv := p.ReadKV(a); kv.Key != 11 || kv.Value != 22 {
		t.Errorf("ReadKV = %+v", kv)
	}
	p.WriteValue(a, 33)
	// One charged read per record: the key load pays for the line, the value
	// word shares it.
	p.ResetStats()
	if kv := p.ReadKV(a); kv.Value != 33 {
		t.Errorf("ReadKV after WriteValue = %+v, want value 33", kv)
	}
	if s := p.Stats(); s.ReadLines != 1 {
		t.Errorf("ReadKV charged %d read lines, want 1", s.ReadLines)
	}
	if got := p.ReadKey(a); got != 11 {
		t.Errorf("ReadKey = %d, want 11", got)
	}
	if got := AlignUp(Addr(257), 256); got != 512 {
		t.Errorf("AlignUp(257,256) = %d, want 512", got)
	}
}
