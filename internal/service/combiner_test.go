package service

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dash/internal/pmem"
)

// Tests of the flat-combining execution model: what happens when nobody
// owns a shard's queue but the clients that need something from it.

// watchdog fails the test with every goroutine's stack if done is not
// closed in time: a lost wake-up shows as a hang, not as a wrong answer.
func watchdog(t *testing.T, done <-chan struct{}, d time.Duration, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		t.Fatalf("%s still running after %v\n%s", what, d, buf[:runtime.Stack(buf, true)])
	}
}

// keysOn returns n distinct keys that route to shard, starting from base.
func keysOn(s *Shards, shard, n int, base uint64) []uint64 {
	keys := make([]uint64, 0, n)
	for k := base; len(keys) < n; k++ {
		if s.Route(k) == shard {
			keys = append(keys, k)
		}
	}
	return keys
}

// blockFlush makes the first Flush on pool for which when holds (nil: the
// first Flush) signal entered and then wait for release: the shard's
// combiner, whoever it is, stops mid-window holding the combiner lock.
func blockFlush(pool *pmem.Pool, when func() bool) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var once atomic.Bool
	pool.SetFlushHook(func(pmem.Addr, uint64) {
		if (when == nil || when()) && once.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	})
	return entered, release
}

func counter(f *Frontend, name string) uint64 { return f.Metrics().Snapshot().Counters[name] }

// One goroutine submits ten times the queue's capacity to one shard before
// its first Wait: Submit on a full queue runs the shard instead of blocking,
// so the submitter needs nobody else to make room.
func TestFrontendSubmitBeyondCapacity(t *testing.T) {
	s := newShards(t, 1, 5)
	defer s.Close()
	fe := NewFrontend(s, 4)
	defer fe.Close()
	n := 10 * len(fe.queues[0].ring)
	reqs := make([]Request, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range reqs {
			reqs[i].Op, reqs[i].Key, reqs[i].Value = OpInsert, uint64(i), uint64(i)+3
			fe.Submit(&reqs[i])
		}
		for i := range reqs {
			res := reqs[i].Wait()
			if res.Err != nil {
				t.Errorf("insert %d: %v", i, res.Err)
			}
			// A completed request answers again instead of blocking.
			if again := reqs[i].Wait(); again.Err != res.Err || again.Found != res.Found || again.Value != res.Value {
				t.Errorf("second Wait on request %d = %+v, first %+v", i, again, res)
			}
		}
	}()
	watchdog(t, done, 30*time.Second, "a lone submitter over a full queue")
	if got := s.Count(); got != int64(n) {
		t.Fatalf("Count = %d, want %d", got, n)
	}
	if counter(fe, "service.submit.full") == 0 {
		t.Error("service.submit.full = 0 after submitting 10x the queue capacity unawaited")
	}
}

// Close executes what was submitted and never awaited, and once it has
// started a Submit is refused at once — it does not queue behind, or wait
// for, a shard whose combiner is stuck.
func TestFrontendCloseDrainsAndRefuses(t *testing.T) {
	s := newShards(t, 2, 9)
	defer s.Close()
	fe := NewFrontend(s, 4)

	var reqs []*Request
	for shard := 0; shard < 2; shard++ {
		for _, k := range keysOn(s, shard, 6, 100) {
			r := &Request{Op: OpInsert, Key: k, Value: k + 1}
			fe.Submit(r)
			reqs = append(reqs, r)
		}
	}
	// Close becomes shard 0's combiner and stops inside its first batch.
	entered, release := blockFlush(s.Pool(0), nil)
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		fe.Close()
	}()
	watchdog(t, entered, 30*time.Second, "Close reaching shard 0's first flush")

	refused := make(chan struct{})
	go func() {
		defer close(refused)
		for shard := 0; shard < 2; shard++ {
			r := &Request{Op: OpInsert, Key: keysOn(s, shard, 1, 1<<30)[0], Value: 1}
			fe.Submit(r)
			if res := r.Wait(); !errors.Is(res.Err, ErrClosed) {
				t.Errorf("Submit to shard %d during Close: err = %v, want ErrClosed", shard, res.Err)
			}
		}
	}()
	watchdog(t, refused, 30*time.Second, "a Submit behind a Close that is stuck on shard 0")

	close(release)
	watchdog(t, closed, 30*time.Second, "Close")
	for _, r := range reqs {
		if res := r.Wait(); res.Err != nil {
			t.Errorf("request %d left to Close: %v", r.Key, res.Err)
		}
		if v, ok := s.Table(s.Route(r.Key)).Get(r.Key); !ok || v != r.Key+1 {
			t.Errorf("key %d after Close: found=%v v=%d", r.Key, ok, v)
		}
	}
}

// No request is done before its batch's tail fence: with the combiner
// stopped mid-window after at least one whole operation, every request of
// the batch — the executed ones too — is still pending and no real fence
// has been issued; after the window closes all are done behind exactly one.
func TestFrontendAckAfterTailFence(t *testing.T) {
	s := newShards(t, 1, 13)
	defer s.Close()
	fe := NewFrontend(s, 8)
	defer fe.Close()
	pool := s.Pool(0)

	base := pool.Stats()
	if err := s.Table(0).Insert(1<<20, 7); err != nil {
		t.Fatal(err)
	}
	perInsert := pool.Stats().Sub(base).Fences
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i].Op, reqs[i].Key, reqs[i].Value = OpInsert, uint64(i), 7
		fe.Submit(&reqs[i])
	}
	base = pool.Stats()
	// Two inserts' worth of elided fences: at least one ran to its end.
	entered, release := blockFlush(pool, func() bool {
		return pool.Stats().Sub(base).FencesElided >= 2*perInsert
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		reqs[len(reqs)-1].Wait() // the last of the batch: this client runs all eight
	}()
	watchdog(t, entered, 30*time.Second, "the combiner reaching the middle of its window")
	for i := range reqs {
		if st := atomic.LoadUint32(&reqs[i].state); st == reqDone {
			t.Errorf("request %d done inside the fence window", i)
		}
	}
	if f := pool.Stats().Sub(base).Fences; f != 0 {
		t.Errorf("%d real fences inside the window, want 0", f)
	}
	close(release)
	watchdog(t, done, 30*time.Second, "the batch")
	pool.SetFlushHook(nil)
	for i := range reqs {
		if res := reqs[i].Wait(); res.Err != nil {
			t.Errorf("insert %d: %v", i, res.Err)
		}
	}
	if f := pool.Stats().Sub(base).Fences; f != 1 {
		t.Errorf("%d real fences for one batch of 8 inserts, want the tail fence alone", f)
	}
}

// Parking and hand-off, deterministically: with batch 1 and shard 0's
// combiner stuck on A's request, B and C run out of yields and sleep in the
// shard's combiner lock behind it. When A's batch ends, A has its result
// and leaves; the queue still holds B's and C's requests and both owners
// sleep, so A's Unlock must wake one of them in Lock, which runs a batch,
// and its Unlock the other.
func TestFrontendParkAndHandOff(t *testing.T) {
	s := newShards(t, 1, 3)
	defer s.Close()
	fe := NewFrontend(s, 1)
	defer fe.Close()

	entered, release := blockFlush(s.Pool(0), nil)
	var wg sync.WaitGroup
	client := func(key uint64) {
		defer wg.Done()
		r := &Request{Op: OpInsert, Key: key, Value: key}
		fe.Submit(r)
		if res := r.Wait(); res.Err != nil {
			t.Errorf("insert %d: %v", key, res.Err)
		}
	}
	wg.Add(1)
	go client(1)
	watchdog(t, entered, 30*time.Second, "A becoming the combiner")
	wg.Add(2)
	go client(2)
	go client(3)
	for deadline := time.Now().Add(30 * time.Second); counter(fe, "service.wait.parked") < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("service.wait.parked = %d, want 2 waiters asleep behind a stuck combiner", counter(fe, "service.wait.parked"))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	watchdog(t, done, 30*time.Second, "the parked clients")
	if got := s.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
}

// A Submit into a full queue whose combiner is stuck sleeps in the shard's
// combiner lock once its yields run out; it does not spin until there is
// room. With batch 1 (queue capacity 16) and shard 0's combiner stopped in
// a flush on A's request, B submits 17 requests without waiting: the 17th
// must be counted in service.wait.parked while the combiner is still
// stuck, and once it is released all 17 complete, in FIFO order — they
// alternate an insert and a delete of one key, so any two swapped fail.
func TestFrontendFullQueueSleeps(t *testing.T) {
	s := newShards(t, 1, 17)
	defer s.Close()
	fe := NewFrontend(s, 1)
	defer fe.Close()
	if got := len(fe.queues[0].ring); got != 16 {
		t.Fatalf("queue capacity %d at batch 1, want 16", got)
	}

	entered, release := blockFlush(s.Pool(0), nil)
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	a := &Request{Op: OpInsert, Key: 1 << 40, Value: 1}
	fe.Submit(a)
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		a.Wait()
	}()
	watchdog(t, entered, 30*time.Second, "A becoming the combiner")

	const key = 7
	reqs := make([]Request, len(fe.queues[0].ring)+1)
	var submitted atomic.Int32
	bDone := make(chan struct{})
	go func() {
		defer close(bDone)
		for i := range reqs {
			reqs[i].Op, reqs[i].Key, reqs[i].Value = OpInsert, key, uint64(i)
			if i%2 == 1 {
				reqs[i].Op = OpDelete
			}
			fe.Submit(&reqs[i])
			submitted.Add(1)
		}
		for i := range reqs {
			reqs[i].Wait()
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); counter(fe, "service.wait.parked") == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("service.wait.parked = 0 after %d Submits into a full queue: the 17th spins instead of sleeping",
				submitted.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if n := submitted.Load(); n != int32(len(reqs)-1) {
		t.Errorf("%d Submits returned while the combiner was stuck, want %d", n, len(reqs)-1)
	}
	released = true
	close(release)
	watchdog(t, aDone, 30*time.Second, "A's batch")
	watchdog(t, bDone, 30*time.Second, "B's 17 requests")
	if res := a.Wait(); res.Err != nil {
		t.Errorf("A's insert: %v", res.Err)
	}
	for i := range reqs {
		res := reqs[i].Wait()
		if reqs[i].Op == OpInsert && res.Err != nil || reqs[i].Op == OpDelete && !res.Found {
			t.Errorf("request %d (op %d) out of order: %+v", i, reqs[i].Op, res)
		}
	}
	if v, ok := s.Table(0).Get(key); !ok || v != uint64(len(reqs)-1) {
		t.Errorf("key after the last insert: found=%v v=%d, want %d", ok, v, len(reqs)-1)
	}
}

// Liveness and per-shard order with far more clients than processors: 64
// clients, each pipelining insert → get → update → get → delete → get on
// one key without waiting in between, on 2 procs. Every request completes
// (combiner changes, helping, parking and hand-off lose no wake-up), every
// reply observes program order (one FIFO per shard, one writer per shard at
// a time), and the frontend owns no goroutine. Over 4 shards a waiter
// nearly always finds a shard to help; over 1 shard whose combiner stalls
// now and then (a flush hook that sleeps) there is nothing to help and the
// other 63 run out of yields, so sleeping in the combiner lock carries the
// load.
func TestFrontendOversubscribedOrder(t *testing.T) {
	t.Run("shards=4", func(t *testing.T) { testOversubscribed(t, 4, 60, 0) })
	t.Run("shards=1,stalls", func(t *testing.T) { testOversubscribed(t, 1, 20, 500) })
}

// testOversubscribed runs the 64-client script, keys keys per client; a
// non-zero stallEvery puts the combiner to sleep on every stallEvery-th
// flush.
func testOversubscribed(t *testing.T, shards, keys int, stallEvery int64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const (
		clients = 64
		window  = 8
	)
	s, err := New(Config{Shards: shards, PoolSize: 16 << 20, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if stallEvery > 0 {
		var flushes atomic.Int64
		for i := 0; i < s.N(); i++ {
			s.Pool(i).SetFlushHook(func(pmem.Addr, uint64) {
				if flushes.Add(1)%stallEvery == 0 {
					time.Sleep(20 * time.Millisecond)
				}
			})
		}
	}
	before := runtime.NumGoroutine()
	fe := NewFrontend(s, 16)
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("NewFrontend started %d goroutines", n-before)
	}

	type step struct {
		op    Op
		val   uint64
		found bool // expected of the reply (Get/Update/Delete)
	}
	script := func(k uint64) [6]step {
		return [6]step{
			{OpInsert, k + 1, false},
			{OpGet, k + 1, true},
			{OpUpdate, k + 2, true},
			{OpGet, k + 2, true},
			{OpDelete, 0, true},
			{OpGet, 0, false},
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var ring [window]struct {
				req  Request
				want step
			}
			check := func(i int) {
				sl := &ring[i%window]
				res, want := sl.req.Wait(), sl.want
				ok := res.Err == nil && res.Found == want.found
				if want.op == OpGet && want.found {
					ok = ok && res.Value == want.val
				}
				if !ok {
					t.Errorf("client %d request %d (op %d key %#x): got %+v, want found=%v value=%d",
						c, i, want.op, sl.req.Key, res, want.found, want.val)
				}
			}
			n := 0
			for j := 0; j < keys; j++ {
				k := uint64(c+1)<<32 | uint64(j)<<8
				for _, st := range script(k) {
					if n >= window {
						check(n - window)
					}
					sl := &ring[n%window]
					sl.want = st
					sl.req.Op, sl.req.Key, sl.req.Value = st.op, k, st.val
					fe.Submit(&sl.req)
					n++
				}
			}
			for i := n - window; i < n; i++ {
				check(i)
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	watchdog(t, done, 120*time.Second, "64 clients on 2 procs")

	snap := fe.Metrics().Snapshot()
	var total uint64
	for i := 0; i < s.N(); i++ {
		total += snap.Counters[fmt.Sprintf("service.shard.%d.ops", i)]
	}
	if want := uint64(clients * keys * 6); total != want {
		t.Errorf("shards executed %d requests, want %d", total, want)
	}
	if n := fe.windowOverlaps.Load(); n != 0 {
		t.Errorf("%d fence windows overlapped on one shard", n)
	}
	if got := s.Count(); got != 0 {
		t.Errorf("Count = %d after every key was deleted", got)
	}
	t.Logf("batches: own %d, helped %d; parked %d, submit on full queue %d, mean batch %.1f",
		snap.Counters["service.combine.own"], snap.Counters["service.combine.helped"],
		snap.Counters["service.wait.parked"], snap.Counters["service.submit.full"],
		snap.Hists["service.batch.size"].Mean)
	fe.Close()
	// The clients have returned from wg.Done but may not have exited yet.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before NewFrontend", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
