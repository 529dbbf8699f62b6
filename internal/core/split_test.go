package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dash/internal/pmem"
)

// splitTestTimeout bounds the cross-goroutine waits below: generous enough
// for a loaded -race CI box, far below the package test timeout.
const splitTestTimeout = 30 * time.Second

// fillPrefix inserts ascending keys whose top-two hash bits equal prefix,
// starting the key scan at start, until n inserts succeeded. Returns the
// next unscanned key. The prefix pins every key to the subtree of one
// initial-depth-2 segment, whatever the global depth grows to.
func fillPrefix(t *testing.T, tbl *Table, prefix uint64, start, n uint64) uint64 {
	t.Helper()
	k := start
	for done := uint64(0); done < n; k++ {
		if tbl.parts(k).DirIndex(2) != prefix {
			continue
		}
		if err := tbl.Insert(k, k^0xABCD); err != nil {
			t.Fatalf("fill insert %d: %v", k, err)
		}
		done++
	}
	return k
}

// TestConcurrentSplitsDistinctSegments proves splits of distinct segments
// proceed in parallel: the first split to reach mid-migration blocks until a
// split of a *different* segment also reaches mid-migration. Under the old
// table-wide split mutex the second split could never start and this test
// would time out; with per-segment split ownership both arrive.
func TestConcurrentSplitsDistinctSegments(t *testing.T) {
	tbl := newTestTable(t, 64<<20, Options{InitialDepth: 2})

	var (
		mu      sync.Mutex
		inMig   = make(map[pmem.Addr]bool)
		both    = make(chan struct{})
		closed  bool
		timeout atomic.Bool
	)
	tbl.hookMidMigrate = func(seg pmem.Addr, bucket int) {
		if bucket != normalBuckets/2 {
			return
		}
		mu.Lock()
		inMig[seg] = true
		if len(inMig) >= 2 && !closed {
			closed = true
			close(both)
		}
		mu.Unlock()
		select {
		case <-both:
		case <-time.After(splitTestTimeout):
			timeout.Store(true)
		}
	}

	// Two goroutines, each filling its own initial segment's key prefix
	// until that segment must have split at least once (a segment holds at
	// most slotsPerSegment records).
	var wg sync.WaitGroup
	for _, prefix := range []uint64{0, 2} {
		wg.Add(1)
		go func(prefix uint64) {
			defer wg.Done()
			fillPrefix(t, tbl, prefix, prefix*1<<40, slotsPerSegment+200)
		}(prefix)
	}
	wg.Wait()

	if timeout.Load() {
		t.Fatal("second segment's split never reached migration: splits are serialized")
	}
	if s := tbl.Stats().Splits; s < 2 {
		t.Fatalf("expected >= 2 completed splits, got %d", s)
	}
}

// TestReaderDuringSplitMigration pauses the first split mid-migration —
// half the buckets copied, half not, directory untouched — and has a reader
// sweep every acknowledged key. Records on both sides of the migration
// front must stay readable with their exact values: the split must be
// invisible to readers until it publishes.
func TestReaderDuringSplitMigration(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{InitialDepth: 1})

	acked := make(map[uint64]uint64)
	paused := make(chan struct{})  // closed when the split reaches mid-migration
	release := make(chan struct{}) // closed when the reader is done
	var once sync.Once
	tbl.hookMidMigrate = func(_ pmem.Addr, bucket int) {
		if bucket != normalBuckets/2 {
			return
		}
		once.Do(func() {
			close(paused)
			select {
			case <-release:
			case <-time.After(splitTestTimeout):
				t.Error("reader never released the paused split")
			}
		})
	}

	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		<-paused
		// The inserter is parked inside the split hook, so acked is frozen;
		// the channel close orders our reads after its last write.
		for pass := 0; pass < 3; pass++ {
			for k, want := range acked {
				v, ok := tbl.Get(k)
				if !ok {
					t.Errorf("mid-split: key %d missing", k)
					close(release)
					return
				}
				if v != want {
					t.Errorf("mid-split: key %d = %d, want %d (torn read)", k, v, want)
					close(release)
					return
				}
			}
		}
		close(release)
	}()

	// Insert until the split (and with it the reader) has run. 2 segments
	// hold at most 2*slotsPerSegment records, so this fill must split.
	for k := uint64(0); k < 3*slotsPerSegment; k++ {
		if err := tbl.Insert(k, k*7+3); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		acked[k] = k*7 + 3
	}
	select {
	case <-readerDone:
	case <-time.After(splitTestTimeout):
		t.Fatal("reader did not finish")
	}

	// And after everything settles, the table is intact.
	for k, want := range acked {
		if v, ok := tbl.Get(k); !ok || v != want {
			t.Fatalf("post-split: key %d = %d,%v want %d", k, v, ok, want)
		}
	}
}

// TestWritersDuringSplitMigration pauses the first split mid-migration and
// drives concurrent inserts, deletes and updates against the splitting
// segment from other goroutines — the writer-assist path: sibling-claimed
// mutations must be mirrored into the unpublished sibling (and duplicates
// deduped by the migrator) or records would be lost, resurrected or stale
// once the split publishes.
func TestWritersDuringSplitMigration(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{InitialDepth: 1})

	paused := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	tbl.hookMidMigrate = func(_ pmem.Addr, bucket int) {
		if bucket != normalBuckets/2 {
			return
		}
		once.Do(func() {
			close(paused)
			select {
			case <-release:
			case <-time.After(splitTestTimeout):
				t.Error("writers never released the paused split")
			}
		})
	}

	state := make(map[uint64]uint64) // expected value; deleted keys removed
	writersDone := make(chan struct{})
	go func() {
		defer close(writersDone)
		<-paused
		// The splitting inserter is parked, so state is ours alone here.
		// Mutate existing keys on both sides of the migration front: delete
		// every 5th, update every 7th, delete+reinsert every 11th. A
		// reinsert always finds the slot its delete just freed in the
		// key's bucket pair, so none of these operations can trigger (and
		// then wait on) the paused split — while sibling-claimed keys
		// exercise assistDelete/assistOverwrite/assistInsert, including the
		// migrator's duplicate probe when it later reaches a reinserted
		// record's bucket.
		var keys []uint64
		for k := range state {
			keys = append(keys, k)
		}
		for _, k := range keys {
			switch {
			case k%5 == 0:
				if !tbl.Delete(k) {
					t.Errorf("mid-split delete %d reported missing", k)
				}
				delete(state, k)
			case k%7 == 0:
				if ok, err := tbl.Update(k, k+1000000); !ok || err != nil {
					t.Errorf("mid-split update %d reported missing", k)
				}
				state[k] = k + 1000000
			case k%11 == 0:
				if !tbl.Delete(k) {
					t.Errorf("mid-split delete %d reported missing", k)
				}
				if err := tbl.Insert(k, k+2000000); err != nil {
					t.Errorf("mid-split reinsert %d: %v", k, err)
				}
				state[k] = k + 2000000
			}
		}
		close(release)
	}()

	for k := uint64(0); k < 3*slotsPerSegment; k++ {
		if err := tbl.Insert(k, k*3+1); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		if _, dup := state[k]; dup {
			t.Fatalf("key %d generated twice", k)
		}
		// Only record keys inserted before the pause is possible to matter;
		// the map is shared but the writer goroutine touches it only while
		// this loop's inserter is parked inside the split hook.
		state[k] = k*3 + 1
	}
	select {
	case <-writersDone:
	case <-time.After(splitTestTimeout):
		t.Fatal("mid-split writers did not finish")
	}

	for k, want := range state {
		if v, ok := tbl.Get(k); !ok || v != want {
			t.Fatalf("key %d = %d,%v want %d", k, v, ok, want)
		}
	}
	if got, want := tbl.Count(), int64(len(state)); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	// The fixed seed makes the key→segment mapping deterministic: a quarter
	// of the mid-split mutations hit the splitting segment's sibling-claimed
	// half, so assists must have been exercised.
	if a := tbl.Stats().SplitAssists; a == 0 {
		t.Fatal("mid-split writers never exercised the assist path")
	}
}

// --- crash injection at the new publish points ---

// TestCrashAfterSplitMarker: power loss right after the split-progress
// marker is persisted, before any record is migrated. Recovery must clear
// the marker and roll the split back; the old segment still owns everything.
func TestCrashAfterSplitMarker(t *testing.T) {
	pool, acked := crashAtHook(t, func(tbl *Table, _ *pmem.Pool, fire func()) {
		tbl.hookAfterMarker = fire
	})
	verifyCrashRecovery(t, pool, acked)
}

// TestCrashMidSplitMigration: power loss halfway through the incremental
// copy — the sibling holds an unflushed partial copy, the directory knows
// nothing. Recovery must roll back via the marker; no acknowledged record
// may be lost (migration only reads the old segment).
func TestCrashMidSplitMigration(t *testing.T) {
	pool, acked := crashAtHook(t, func(tbl *Table, _ *pmem.Pool, fire func()) {
		tbl.hookMidMigrate = func(_ pmem.Addr, bucket int) {
			if bucket == normalBuckets/2 {
				fire()
			}
		}
	})
	verifyCrashRecovery(t, pool, acked)
}

// TestCrashMidSweep: power loss after the directory flips and the old
// segment's metadata bump, with only the first bucket of the moved-record
// sweep persisted. Recovery must finish the sweep from the directory image
// (the remaining leftover copies route elsewhere and are dropped).
func TestCrashMidSweep(t *testing.T) {
	pool, acked := crashAtHook(t, func(tbl *Table, _ *pmem.Pool, fire func()) {
		tbl.hookMidSweep = fire
	})
	verifyCrashRecovery(t, pool, acked)
}
