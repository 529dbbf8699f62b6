package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dash/internal/pmem"
)

// TestConcurrentMixedOps runs mixed Insert/Get/Delete/Update from 8 writer
// goroutines plus 2 pure-reader goroutines. Readers go through the
// optimistic path only — no reader ever takes a bucket lock — so running
// this under `go test -race` checks both the locking protocol and the
// seqlock read validation, across segment splits and directory doublings.
func TestConcurrentMixedOps(t *testing.T) {
	const (
		writers   = 8
		readers   = 2
		perWriter = 2500
		keyStride = uint64(1) << 32 // disjoint key space per writer
	)
	tbl := newTestTable(t, 32<<20, Options{})

	var wg, rwg sync.WaitGroup
	var done atomic.Bool
	var insertErrs atomic.Int64

	// Pure readers: hammer Get over the whole key space while the structure
	// splits and doubles underneath them.
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(seed int64) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !done.Load() {
				w := uint64(rng.Intn(writers))
				i := uint64(rng.Intn(perWriter))
				key := w*keyStride + i
				if v, ok := tbl.Get(key); ok && v != key+1 && v != key+2 {
					t.Errorf("reader saw impossible value %d for key %d", v, key)
					return
				}
			}
		}(int64(r))
	}

	// Writers: each owns a disjoint key range. Insert everything, update a
	// third, delete a third, with interleaved reads of its own keys.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			base := w * keyStride
			for i := uint64(0); i < perWriter; i++ {
				key := base + i
				if err := tbl.Insert(key, key+1); err != nil {
					insertErrs.Add(1)
					return
				}
				if i%7 == 0 {
					if v, ok := tbl.Get(key); !ok || v != key+1 {
						t.Errorf("writer %d lost own key %d (%d,%v)", w, key, v, ok)
						return
					}
				}
			}
			for i := uint64(0); i < perWriter; i++ {
				key := base + i
				switch i % 3 {
				case 0:
					if !tbl.Delete(key) {
						t.Errorf("writer %d: Delete(%d) reported missing", w, key)
						return
					}
				case 1:
					if ok, err := tbl.Update(key, key+2); !ok || err != nil {
						t.Errorf("writer %d: Update(%d) reported missing", w, key)
						return
					}
				}
			}
		}(uint64(w))
	}

	// Stop readers once writers finish.
	wg.Wait()
	done.Store(true)
	rwg.Wait()

	if n := insertErrs.Load(); n != 0 {
		t.Fatalf("%d inserts failed", n)
	}

	// Single-threaded verification of the final deterministic state.
	var want int64
	for w := uint64(0); w < writers; w++ {
		for i := uint64(0); i < perWriter; i++ {
			key := w*keyStride + i
			v, ok := tbl.Get(key)
			switch i % 3 {
			case 0:
				if ok {
					t.Fatalf("deleted key %d still present", key)
				}
			case 1:
				if !ok || v != key+2 {
					t.Fatalf("updated key %d = %d,%v want %d", key, v, ok, key+2)
				}
				want++
			case 2:
				if !ok || v != key+1 {
					t.Fatalf("inserted key %d = %d,%v want %d", key, v, ok, key+1)
				}
				want++
			}
		}
	}
	if got := tbl.Count(); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
}

// TestConcurrentSameKeys aims writers at the *same* keys so bucket-lock
// contention, duplicate-insert detection and delete/insert races on one
// slot all get exercised. Invariant: a key is either absent or carries a
// value some writer actually wrote for it.
func TestConcurrentSameKeys(t *testing.T) {
	const (
		workers = 8
		keys    = 512
		iters   = 400
	)
	tbl := newTestTable(t, 16<<20, Options{})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				key := uint64(rng.Intn(keys))
				switch rng.Intn(4) {
				case 0:
					err := tbl.Insert(key, key*10)
					if err != nil && err != ErrKeyExists {
						t.Errorf("insert %d: %v", key, err)
						return
					}
				case 1:
					tbl.Delete(key)
				case 2:
					tbl.Update(key, key*10) // racing mutator; outcome observed via Get below
				case 3:
					if v, ok := tbl.Get(key); ok && v != key*10 {
						t.Errorf("key %d has impossible value %d", key, v)
						return
					}
				}
			}
		}(int64(w) * 7919)
	}
	wg.Wait()

	var live int64
	for k := uint64(0); k < keys; k++ {
		if v, ok := tbl.Get(k); ok {
			live++
			if v != k*10 {
				t.Fatalf("key %d = %d, want %d", k, v, k*10)
			}
		}
	}
	if got := tbl.Count(); got != live {
		t.Fatalf("count = %d, live keys = %d", got, live)
	}
}

// TestConcurrentWithCrashTracking combines the two hard modes: a
// crash-tracked pool under concurrent writers (Flush must snapshot lines
// atomically while neighbors' lock words change), then power loss and
// recovery of everything the writers were acknowledged.
func TestConcurrentWithCrashTracking(t *testing.T) {
	pool, err := pmem.NewPool(pmem.Options{Size: 2 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for i := uint64(0); i < per; i++ {
				key := w<<32 + i
				if err := tbl.Insert(key, key+9); err != nil {
					t.Errorf("insert %d: %v", key, err)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()

	pool.Crash()
	tbl2 := openTestTable(t, pool)
	for w := uint64(0); w < workers; w++ {
		for i := uint64(0); i < per; i++ {
			key := w<<32 + i
			if v, ok := tbl2.Get(key); !ok || v != key+9 {
				t.Fatalf("after crash Get(%d) = %d,%v", key, v, ok)
			}
		}
	}
	if got := tbl2.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
}
