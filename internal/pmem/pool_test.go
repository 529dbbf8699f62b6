package pmem

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
// store is a store for crash purposes — a word, and a byte range across
// three lines, of which only the flushed one survives.
func TestQuietWritesStillCrashTracked(t *testing.T) {
	p := newTracked(t, 4096)
	a := Addr(CachelineSize)
	p.QuietStoreU64(a, 99)
	if p.DirtyLines() != 1 {
		t.Fatalf("quiet word store left %d dirty lines, want 1", p.DirtyLines())
	}
	p.Crash()
	if got := p.LoadU64(a); got != 0 {
		t.Errorf("unflushed quiet write survived: got %d", got)
	}

	b := Addr(4*CachelineSize + 40) // the range straddles lines 4, 5 and 6
	src := bytes.Repeat([]byte{0xAB}, 2*CachelineSize)
	p.QuietStoreBytes(b, src)
	if s := p.Stats(); s.WriteLines != 0 {
		t.Errorf("quiet byte store charged %d write lines", s.WriteLines)
	}
	if p.DirtyLines() != 3 {
		t.Fatalf("quiet byte store left %d dirty lines, want 3", p.DirtyLines())
	}
	p.Persist(5*CachelineSize, CachelineSize)
	p.Crash()
	got := p.QuietBytes(b, uint64(len(src)))
	head, mid, tail := CachelineSize-40, CachelineSize-40+CachelineSize, len(src)
	if !bytes.Equal(got[:head], make([]byte, head)) || !bytes.Equal(got[mid:tail], make([]byte, tail-mid)) {
		t.Errorf("unflushed lines of a quiet byte store survived: %x", got)
	}
	if !bytes.Equal(got[head:mid], src[head:mid]) {
		t.Errorf("flushed line of a quiet byte store lost: %x", got[head:mid])
	}
}

// media reads the media image's word at a, under its line's busy bit.
func (p *Pool) media(a Addr) uint64 {
	l := uint64(a) / CachelineSize
	p.crash.lock(l, 0)
	defer p.crash.unlock(l)
	return binary.NativeEndian.Uint64(p.crash.media[a:])
}

// TestSameLineFlushes races two flushers and a storer on the same lines. The
// storer writes ascending values into the first word of every line, then
// publishes the value. After any Flush returns, media must hold a value no
// older than the one published before that flush began — at every later
// instant, so a flusher checks every line against the largest such value
// of all flushes returned so far (durable). A flush copies each line under
// the line's busy bit: without that exclusion a flush that loaded a word
// before a store can write it to media after another flush wrote the newer
// value, and media goes back. The window is a preemption between a word's
// load and its store, so the test runs more threads than the box has cores
// to let the OS preempt anywhere; under the race detector the missing
// exclusion is reported outright.
func TestSameLineFlushes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const lines = 16
	p := newTracked(t, (lines+2)*CachelineSize)
	base := Addr(CachelineSize)
	var stored, durable atomic.Uint64
	stop := make(chan struct{})
	var storer, flushers sync.WaitGroup
	storer.Add(1)
	go func() {
		defer storer.Done()
		for v := uint64(1); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			for l := uint64(0); l < lines; l++ {
				p.StoreU64(base.Add(l*CachelineSize), v)
			}
			stored.Store(v)
		}
	}()
	deadline := time.Now().Add(500 * time.Millisecond)
	for f := 0; f < 2; f++ {
		flushers.Add(1)
		go func() {
			defer flushers.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				before := stored.Load()
				p.Flush(base, lines*CachelineSize)
				for d := durable.Load(); d < before && !durable.CompareAndSwap(d, before); d = durable.Load() {
				}
				floor := durable.Load()
				for l := uint64(0); l < lines; l++ {
					if m := p.media(base.Add(l * CachelineSize)); m < floor {
						t.Errorf("flush %d: line %d media holds %d, but a returned flush began after %d was stored", i, l, m, floor)
						return
					}
				}
			}
		}()
	}
	flushers.Wait()
	close(stop)
	storer.Wait()
}

// TestFlushCopiesLineBetweenStores: what a flush writes to media is a line
// between two stores, never one in the middle of a store sequence. A writer
// stores a record's three words over and over — zero to word 0, then v to
// word 1, then v to word 0, as an insert into a stale slot does — while a
// flusher copies the line a fixed number of times. Every prefix of that
// sequence leaves word 0 zero or equal to word 1; a copy that loaded word 0
// before a sequence and word 1 after it would pair an old word 0 with a new
// word 1, which no hardware can persist. More threads than cores let the OS
// preempt a copy anywhere.
func TestFlushCopiesLineBetweenStores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const flushes = 200_000
	p := newTracked(t, 4*CachelineSize)
	rec := Addr(CachelineSize)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for v := uint64(1); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			p.StoreU64(rec, 0)
			p.QuietStoreU64(rec.Add(8), v)
			p.QuietStoreU64(rec, v)
		}
	}()
	defer func() { close(stop); writer.Wait() }()
	for i := 0; i < flushes; i++ {
		p.Flush(rec, RecordSize)
		if w0, w1 := p.media(rec), p.media(rec.Add(8)); w0 != 0 && w0 != w1 {
			t.Fatalf("flush %d put word 0 = %d next to word 1 = %d on media: a copy torn by a store sequence", i, w0, w1)
		}
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
	p.TouchWrite(a, 3*CachelineSize)
	if s := p.Stats().Sub(s); s.WriteLines != 3 {
		t.Errorf("WriteLines = %d, want 3", s.WriteLines)
	}
}

// TestConcurrentAtomics exercises the atomic accessors from many goroutines
// under -race: the pool's words must behave like regular Go atomics. Eight
// writers store ascending values into words that share two cachelines while
// readers load them and flush their lines; no load may see a word go
// backwards, and each word ends at its writer's last store.
func TestConcurrentAtomics(t *testing.T) {
	p := newTracked(t, 4096)
	base := Addr(CachelineSize)
	const workers, perWorker = 8, 1000
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last [workers]uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				for w := range last {
					v := p.LoadU64(base.Add(uint64(w) * 8))
					if v < last[w] {
						t.Errorf("word %d went back from %d to %d", w, last[w], v)
						return
					}
					last[w] = v
				}
				p.Flush(base, workers*8)
			}
		}()
	}
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(a Addr) {
			defer writers.Done()
			for i := uint64(1); i <= perWorker; i++ {
				p.StoreU64(a, i)
			}
		}(base.Add(uint64(w) * 8))
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	for w := 0; w < workers; w++ {
		if got := p.LoadU64(base.Add(uint64(w) * 8)); got != perWorker {
			t.Errorf("word %d = %d, want %d", w, got, perWorker)
		}
	}
}
