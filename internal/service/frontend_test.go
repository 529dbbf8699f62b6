package service

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dash/internal/core"
	"dash/internal/pmem"
)

// Mixed operations across 4 shards under -race, each client reading its
// replies a window of 8 requests late, with pool sizes and key volume chosen
// so shards split segments concurrently while reads, updates and deletes
// run against them.
func TestFrontendPipelinedMixedOpsRace(t *testing.T) {
	s, err := New(Config{Shards: 4, PoolSize: 16 << 20, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fe := NewFrontend(s, 8)
	defer fe.Close()

	const (
		clients = 8
		ops     = 4000 // enough inserts per client to force splits on every shard
	)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			window := make([]*Request, 8)
			kinds := make([]int, len(window))
			keys := make([]uint64, len(window))
			used := make([]bool, len(window))
			for i := range window {
				window[i] = &Request{}
			}
			check := func(slot int) {
				res := window[slot].Wait()
				switch kinds[slot] {
				case 0: // insert of a fresh key must succeed
					if res.Err != nil {
						t.Errorf("client %d insert %d: %v", w, keys[slot], res.Err)
					}
				case 1: // read-back of an inserted key must hit with its value
					if res.Err != nil || !res.Found || res.Value != keys[slot]*2+1 {
						t.Errorf("client %d read %d: found=%v v=%d err=%v", w, keys[slot], res.Found, res.Value, res.Err)
					}
				case 2: // update of an inserted key must find it
					if res.Err != nil || !res.Found {
						t.Errorf("client %d update %d: found=%v err=%v", w, keys[slot], res.Found, res.Err)
					}
				case 3: // delete of an updated key must find it
					if res.Err != nil || !res.Found {
						t.Errorf("client %d delete %d: found=%v err=%v", w, keys[slot], res.Found, res.Err)
					}
				}
			}
			submit := func(slot int, kind int, key uint64, op Op, val uint64) {
				if used[slot] {
					check(slot)
				}
				kinds[slot], keys[slot], used[slot] = kind, key, true
				r := window[slot]
				r.Op, r.Key, r.Value = op, key, val
				fe.Submit(r)
			}
			slot := 0
			for i := 0; i < ops; i++ {
				key := uint64(w)<<40 | uint64(i)
				// insert → read → (every 4th) update → delete, each reply
				// read a window of 8 requests later.
				submit(slot, 0, key, OpInsert, key*2+1)
				slot = (slot + 1) % len(window)
				submit(slot, 1, key, OpGet, 0)
				slot = (slot + 1) % len(window)
				if i%4 == 0 {
					submit(slot, 2, key, OpUpdate, key*2+2)
					slot = (slot + 1) % len(window)
					submit(slot, 3, key, OpDelete, 0)
					slot = (slot + 1) % len(window)
				}
			}
			for i := range window {
				if used[i] {
					check(i)
				}
			}
		}(w)
	}
	wg.Wait()

	// Every client inserted ops keys and deleted every 4th.
	want := int64(clients * (ops - (ops+3)/4))
	if got := s.Count(); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	var splits uint64
	for i := 0; i < s.N(); i++ {
		splits += s.Table(i).Stats().Splits
	}
	if splits == 0 {
		t.Fatal("no splits happened; grow ops so the race covers concurrent splits")
	}
}

// One Request reused for every Submit from the test goroutine: inserts,
// then Gets on the uint64 path read each value back.
func TestFrontendSingleRequestReuse(t *testing.T) {
	s := newShards(t, 2, 8)
	defer s.Close()
	fe := NewFrontend(s, 4)
	defer fe.Close()
	r := &Request{}
	for k := uint64(0); k < 100; k++ {
		r.Op, r.Key, r.Value = OpInsert, k, k+7
		fe.Submit(r)
		if res := r.Wait(); res.Err != nil {
			t.Fatalf("insert %d: %v", k, res.Err)
		}
	}
	for k := uint64(0); k < 100; k++ {
		r.Op, r.Key = OpGet, k
		fe.Submit(r)
		if res := r.Wait(); !res.Found || res.Value != k+7 {
			t.Fatalf("get %d: found=%v v=%d", k, res.Found, res.Value)
		}
	}
}

// crashNow is the sentinel a flush hook panics with after simulating power
// loss mid-operation.
type crashNow struct{}

// A crash inside Submit loses no acknowledged write. clients=1 crashes
// shard 0's pool in place and unwinds the operation in flight by panic:
// Submit recovers it, the shard is dead — that request and every later one
// routed to it fail with ErrShardDown — the other shard keeps serving, and
// reopening every shard recovers every acknowledged write. clients=4 runs
// four clients on both shards at once, where Pool.Crash cannot be used (it
// needs no other store in flight): at the crash flush it snapshots shard
// 0's media and records what each client had acknowledged by then, and the
// reopened snapshot must hold every one of those writes.
func TestFrontendCrashMidBatchRecovery(t *testing.T) {
	t.Run("clients=1", testCrashInPlace)
	t.Run("clients=4", testCrashSnapshot)
}

// crashShards builds two tracked shards behind a frontend and inserts keys
// 0..1999 through it, every one acknowledged.
func crashShards(t *testing.T) (*Shards, *Frontend, map[uint64]uint64) {
	t.Helper()
	s, err := New(Config{Shards: 2, PoolSize: 4 << 20, Seed: 17, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	fe := NewFrontend(s, 0)
	acked := make(map[uint64]uint64)
	r := &Request{}
	for k := uint64(0); k < 2000; k++ {
		r.Op, r.Key, r.Value = OpInsert, k, k*5+1
		fe.Submit(r)
		if res := r.Wait(); res.Err != nil {
			t.Fatalf("preload %d: %v", k, res.Err)
		}
		acked[k] = k*5 + 1
	}
	return s, fe, acked
}

// requireAcked fails unless tb, completely recovered, holds every key of
// acked that routes to it with its value and verifies.
func requireAcked(t *testing.T, s *Shards, shard int, tb *core.Table, acked map[uint64]uint64) {
	t.Helper()
	for k, want := range acked {
		if s.Route(k) != shard {
			continue
		}
		if v, ok := tb.Get(k); !ok || v != want {
			t.Fatalf("shard %d: acknowledged key %d after crash: found=%v v=%d, want %d", shard, k, ok, v, want)
		}
	}
	tb.RecoverAll()
	if err := tb.Verify(); err != nil {
		t.Errorf("shard %d after reopen: %v", shard, err)
	}
}

func testCrashInPlace(t *testing.T) {
	s, fe, acked := crashShards(t)
	var ackedOn [2]uint64 // requests executed to completion, per shard
	for k := range acked {
		ackedOn[s.Route(k)]++
	}

	// Power loss at the 300th flush of the post-preload write stream.
	var left atomic.Int32
	left.Store(300)
	crashPool := s.Pool(0)
	crashPool.SetFlushHook(func(pmem.Addr, uint64) {
		if left.Add(-1) == 0 {
			crashPool.Crash()
			panic(crashNow{})
		}
	})

	// Insert until shard 0 reports down, then until shard 1 has acknowledged
	// afterDown more: the other shard keeps serving.
	const afterDown = 200
	sawDown, moreAcks := false, 0
	r := &Request{}
	for i := uint64(0); i < 20000 && moreAcks < afterDown; i++ {
		k := uint64(1)<<40 | i
		shard := s.Route(k)
		r.Op, r.Key, r.Value = OpInsert, k, k*5+1
		fe.Submit(r)
		switch res := r.Wait(); {
		case errors.Is(res.Err, ErrShardDown):
			if shard != 0 {
				t.Fatalf("shard %d reported down: %v", shard, res.Err)
			}
			sawDown = true
		case res.Err != nil:
			t.Fatalf("insert %d: %v", k, res.Err)
		case sawDown && shard == 0:
			t.Fatalf("key %d acknowledged on the dead shard", k)
		default:
			acked[k] = k*5 + 1
			ackedOn[shard]++
			if sawDown {
				moreAcks++
			}
		}
	}
	crashPool.SetFlushHook(nil)
	if !sawDown || moreAcks < afterDown {
		t.Fatalf("saw shard 0 down %v, %d acks after it: the crash hook never fired or shard 1 stopped", sawDown, moreAcks)
	}
	// The op counters count operations that returned: what a shard executed
	// is exactly what it acknowledged, the crashed operation is not in it.
	snap := fe.Metrics().Snapshot()
	for i, want := range ackedOn {
		if got := snap.Counters[fmt.Sprintf("service.shard.%d.ops", i)]; got != want {
			t.Errorf("shard %d executed %d requests, acknowledged %d", i, got, want)
		}
	}
	// A fresh Get routed to the dead shard fails fast with ErrShardDown.
	p := &Request{Op: OpGet, Key: keysOn(s, 0, 1, 1<<51)[0]}
	fe.Submit(p)
	if res := p.Wait(); !errors.Is(res.Err, ErrShardDown) {
		t.Fatalf("dead shard answered %+v, want ErrShardDown", res)
	}
	fe.Close()

	// Reopen all shards: shard 1 closes cleanly, shard 0 reopens its crash
	// image. Every acknowledged write must be there.
	s.Table(1).Close()
	re, err := Open([]*pmem.Pool{s.Pool(0), s.Pool(1)}, Config{Seed: 17})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer re.Close()
	for i := 0; i < re.N(); i++ {
		requireAcked(t, re, i, re.Table(i), acked)
	}
	// The recovered service keeps working end to end.
	fe2 := NewFrontend(re, 0)
	defer fe2.Close()
	p = &Request{Op: OpInsert, Key: 1 << 50, Value: 9}
	fe2.Submit(p)
	if res := p.Wait(); res.Err != nil {
		t.Fatalf("post-recovery insert: %v", res.Err)
	}
}

func testCrashSnapshot(t *testing.T) {
	const (
		clients   = 4
		perClient = 1500
		crashAt   = 300 // shard 0 flushes after the preload
	)
	s, fe, acked := crashShards(t)
	defer s.Close()
	defer fe.Close()
	key := func(c, i int) uint64 { return uint64(c+1)<<40 | uint64(i) }

	// ackedN[c] is stored after client c's Submit of its ackedN-th key
	// returned; the hook reads it at the crash flush, so every key below
	// ackedAt[c] was acknowledged before the image was taken. Flushes after
	// the crash flush wait until the image is taken.
	var (
		ackedN  [clients]atomic.Int64
		ackedAt [clients]int64
		flushes atomic.Int64
		img     []byte
		frozen  = make(chan struct{})
	)
	pool := s.Pool(0)
	pool.SetFlushHook(func(pmem.Addr, uint64) {
		switch n := flushes.Add(1); {
		case n == crashAt:
			for c := range ackedAt {
				ackedAt[c] = ackedN[c].Load()
			}
			img = pool.Snapshot()
			close(frozen)
		case n > crashAt:
			<-frozen
		}
	})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &Request{}
			for i := 0; i < perClient; i++ {
				r.Op, r.Key, r.Value = OpInsert, key(c, i), key(c, i)*5+1
				fe.Submit(r)
				if res := r.Wait(); res.Err != nil {
					t.Errorf("client %d insert %d: %v", c, i, res.Err)
					return
				}
				ackedN[c].Store(int64(i + 1))
			}
		}()
	}
	wg.Wait()
	pool.SetFlushHook(nil)
	if img == nil {
		t.Fatalf("the crash flush never fired: %d flushes on shard 0", flushes.Load())
	}
	var before int64
	for c := range ackedAt {
		before += ackedAt[c]
		for i := 0; i < int(ackedAt[c]); i++ {
			acked[key(c, i)] = key(c, i)*5 + 1
		}
	}
	if before == 0 {
		t.Fatal("no client had an acknowledged write when the image was taken")
	}
	crashed, err := pmem.OpenSnapshot(img, pmem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := core.Open(crashed)
	if err != nil {
		t.Fatalf("reopen crash image: %v", err)
	}
	defer tb.Close()
	requireAcked(t, s, 0, tb, acked)
	t.Logf("image at shard 0's flush %d held %d acknowledged client writes", crashAt, before)
}

// Submissions racing Close must fail cleanly with ErrClosed, never panic on
// a closed channel.
func TestFrontendSubmitCloseRace(t *testing.T) {
	s := newShards(t, 2, 4)
	defer s.Close()
	fe := NewFrontend(s, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				r := &Request{Op: OpInsert, Key: uint64(w)<<32 | uint64(i), Value: 1}
				fe.Submit(r)
				res := r.Wait()
				if res.Err != nil && !errors.Is(res.Err, ErrClosed) {
					t.Errorf("submit during close: %v", res.Err)
					return
				}
				if res.Err != nil {
					return
				}
			}
		}(w)
	}
	fe.Close()
	wg.Wait()
}

// The frontend's registry holds exactly its per-shard op counters and the
// imbalance gauge, and the counters count every executed request.
func TestFrontendMeters(t *testing.T) {
	s := newShards(t, 2, 6)
	defer s.Close()
	fe := NewFrontend(s, 0)
	const ops = 2000
	r := &Request{}
	for k := uint64(0); k < ops; k++ {
		r.Op, r.Key, r.Value = OpInsert, k, k
		fe.Submit(r)
		r.Wait()
	}
	fe.Close()
	snap := fe.Metrics().Snapshot()
	var total uint64
	for i := 0; i < s.N(); i++ {
		n, ok := snap.Counters[fmt.Sprintf("service.shard.%d.ops", i)]
		if !ok || n == 0 {
			t.Errorf("shard %d op counter: %d (registered %v)", i, n, ok)
		}
		total += n
	}
	if total != ops {
		t.Fatalf("per-shard op counters sum to %d, want %d", total, ops)
	}
	if _, ok := snap.Gauges["service.shard.imbalance"]; !ok {
		t.Error("gauge service.shard.imbalance missing")
	}
	if n := len(snap.Counters) + len(snap.Gauges) + len(snap.Hists); n != s.N()+1 {
		t.Errorf("registry holds %d meters, want %d op counters and the imbalance gauge: %+v", n, s.N(), snap)
	}
}

// Exec is the one request → Table dispatch: every op, through both key
// encodings, must land on the matching Table method and report its outcome
// the way the frontend's clients read it.
func TestExecDispatch(t *testing.T) {
	pool, err := pmem.NewPool(pmem.Options{Size: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := core.Create(pool, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	kb := []byte("a variable-length key")
	for _, tc := range []struct {
		name string
		req  Request
		want Result
		err  error
	}{
		{"u64 get miss", Request{Op: OpGet, Key: 7}, Result{}, nil},
		{"u64 update miss", Request{Op: OpUpdate, Key: 7, Value: 1}, Result{}, nil},
		{"u64 delete miss", Request{Op: OpDelete, Key: 7}, Result{}, nil},
		{"u64 insert", Request{Op: OpInsert, Key: 7, Value: 70}, Result{}, nil},
		{"u64 insert dup", Request{Op: OpInsert, Key: 7, Value: 71}, Result{}, core.ErrKeyExists},
		{"u64 get", Request{Op: OpGet, Key: 7}, Result{Value: 70, Found: true}, nil},
		{"u64 update", Request{Op: OpUpdate, Key: 7, Value: 72}, Result{Found: true}, nil},
		{"u64 get updated", Request{Op: OpGet, Key: 7}, Result{Value: 72, Found: true}, nil},
		{"u64 delete", Request{Op: OpDelete, Key: 7}, Result{Found: true}, nil},
		{"u64 get deleted", Request{Op: OpGet, Key: 7}, Result{}, nil},

		{"bytes get miss", Request{Op: OpGet, KeyB: kb}, Result{}, nil},
		{"bytes update miss", Request{Op: OpUpdate, KeyB: kb, ValueB: []byte("x")}, Result{}, nil},
		{"bytes delete miss", Request{Op: OpDelete, KeyB: kb}, Result{}, nil},
		{"bytes insert", Request{Op: OpInsert, KeyB: kb, ValueB: []byte("first value")}, Result{}, nil},
		{"bytes insert dup", Request{Op: OpInsert, KeyB: kb, ValueB: []byte("y")}, Result{}, core.ErrKeyExists},
		{"bytes get", Request{Op: OpGet, KeyB: kb, ValueB: make([]byte, 0, 64)}, Result{ValueB: []byte("first value"), Found: true}, nil},
		{"bytes update", Request{Op: OpUpdate, KeyB: kb, ValueB: []byte("a second, longer value")}, Result{Found: true}, nil},
		{"bytes get updated", Request{Op: OpGet, KeyB: kb}, Result{ValueB: []byte("a second, longer value"), Found: true}, nil},
		{"bytes delete", Request{Op: OpDelete, KeyB: kb}, Result{Found: true}, nil},
		{"bytes get deleted", Request{Op: OpGet, KeyB: kb}, Result{}, nil},
	} {
		got := Exec(tb, &tc.req)
		if !errors.Is(got.Err, tc.err) || (tc.err == nil && got.Err != nil) {
			t.Errorf("%s: err = %v, want %v", tc.name, got.Err, tc.err)
		}
		if got.Found != tc.want.Found || got.Value != tc.want.Value || !bytes.Equal(got.ValueB, tc.want.ValueB) {
			t.Errorf("%s: got {%d %q %v}, want {%d %q %v}", tc.name,
				got.Value, got.ValueB, got.Found, tc.want.Value, tc.want.ValueB, tc.want.Found)
		}
	}
	// A Get appends into the request's buffer: no allocation when it fits.
	buf := make([]byte, 0, 64)
	if err := tb.InsertB(kb, []byte("reuse me")); err != nil {
		t.Fatal(err)
	}
	if got := Exec(tb, &Request{Op: OpGet, KeyB: kb, ValueB: buf}); &got.ValueB[0] != &buf[:1][0] {
		t.Error("[]byte Get did not reuse the request's ValueB buffer")
	}

	for _, r := range []Request{{Op: OpDelete + 1, Key: 1}, {Op: OpDelete + 1, KeyB: kb}} {
		if got := Exec(tb, &r); got.Err == nil || got.Found {
			t.Errorf("unknown op %d (bytes %v): result %+v, want an error", r.Op, r.KeyB != nil, got)
		}
	}
	if tb.Count() != 1 {
		t.Errorf("table holds %d records after the sequence, want 1", tb.Count())
	}
}

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

// blockFlush makes the first Flush on pool signal entered and then wait for
// release: the client whose operation flushes stops inside it.
func blockFlush(pool *pmem.Pool) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var once atomic.Bool
	pool.SetFlushHook(func(pmem.Addr, uint64) {
		if once.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	})
	return entered, release
}

// Once Close has begun a Submit is refused at once on every shard, even
// while another client's operation is stopped inside a shard's table; that
// operation, already running when Close was called, completes.
func TestFrontendRefusesAfterClose(t *testing.T) {
	s := newShards(t, 2, 9)
	defer s.Close()
	fe := NewFrontend(s, 0)

	var reqs []*Request
	for shard := 0; shard < 2; shard++ {
		for _, k := range keysOn(s, shard, 6, 100) {
			r := &Request{Op: OpInsert, Key: k, Value: k + 1}
			fe.Submit(r)
			reqs = append(reqs, r)
		}
	}
	// A client stops inside its insert's flush on shard 0.
	entered, release := blockFlush(s.Pool(0))
	stuck := &Request{Op: OpInsert, Key: keysOn(s, 0, 1, 1<<20)[0], Value: 5}
	stuckDone := make(chan struct{})
	go func() {
		defer close(stuckDone)
		fe.Submit(stuck)
	}()
	watchdog(t, entered, 30*time.Second, "the stuck insert reaching its flush")
	fe.Close()

	refused := make(chan struct{})
	go func() {
		defer close(refused)
		for shard := 0; shard < 2; shard++ {
			r := &Request{Op: OpInsert, Key: keysOn(s, shard, 1, 1<<30)[0], Value: 1}
			fe.Submit(r)
			if res := r.Wait(); !errors.Is(res.Err, ErrClosed) {
				t.Errorf("Submit to shard %d after Close: err = %v, want ErrClosed", shard, res.Err)
			}
		}
	}()
	watchdog(t, refused, 30*time.Second, "a Submit after Close, beside an operation stuck on shard 0")

	close(release)
	watchdog(t, stuckDone, 30*time.Second, "the stuck insert")
	s.Pool(0).SetFlushHook(nil)
	for _, r := range append(reqs, stuck) {
		if res := r.Wait(); res.Err != nil {
			t.Errorf("request %d submitted before Close: %v", r.Key, res.Err)
		}
		if v, ok := s.Table(s.Route(r.Key)).Get(r.Key); !ok || v != r.Value {
			t.Errorf("key %d after Close: found=%v v=%d", r.Key, ok, v)
		}
	}
}

// A write is acknowledged only after its own fence: stopped in its flush,
// the insert's Submit has not returned and nothing is fenced; once Submit
// returns, the insert has paid its fences, all of them — every acknowledged
// write pays its own, none is shared or elided.
func TestFrontendAckAfterOwnFence(t *testing.T) {
	s := newShards(t, 1, 13)
	defer s.Close()
	fe := NewFrontend(s, 0)
	defer fe.Close()
	pool := s.Pool(0)

	base := pool.Stats()
	if err := s.Table(0).Insert(1<<20, 7); err != nil {
		t.Fatal(err)
	}
	perInsert := pool.Stats().Sub(base).Fences
	if perInsert == 0 {
		t.Fatal("an insert paid no fence")
	}

	base = pool.Stats()
	entered, release := blockFlush(pool)
	r := &Request{Op: OpInsert, Key: 1, Value: 7}
	done := make(chan struct{})
	go func() {
		defer close(done)
		fe.Submit(r)
	}()
	watchdog(t, entered, 30*time.Second, "the insert reaching its flush")
	select {
	case <-done:
		t.Fatal("Submit returned while its insert was stopped in its flush")
	default:
	}
	if f := pool.Stats().Sub(base).Fences; f != 0 {
		t.Errorf("%d fences before the insert's flush completed", f)
	}
	close(release)
	watchdog(t, done, 30*time.Second, "the insert")
	pool.SetFlushHook(nil)
	if res := r.Wait(); res.Err != nil {
		t.Fatalf("insert: %v", res.Err)
	}
	if f := pool.Stats().Sub(base).Fences; f != perInsert {
		t.Errorf("insert acknowledged after %d fences, want its own %d", f, perInsert)
	}

	// Eight more, each acknowledged after its own fences.
	for k := uint64(2); k < 10; k++ {
		base = pool.Stats()
		r.Op, r.Key = OpInsert, k
		fe.Submit(r)
		if res := r.Wait(); res.Err != nil {
			t.Fatalf("insert %d: %v", k, res.Err)
		}
		if f := pool.Stats().Sub(base).Fences; f != perInsert {
			t.Errorf("insert %d acknowledged after %d fences, want %d", k, f, perInsert)
		}
	}
}

// Liveness and per-key order with far more clients than processors: 64
// clients, each sending insert → get → update → get → delete → get on one
// key and reading each reply a window of 8 requests late, on 2 procs. Every
// request completes, every reply observes program order, and the frontend
// owns no goroutine. Over 4 shards the clients spread; over 1 shard whose
// operations stall now and then (a flush hook that sleeps) all 64 run on
// one table at once, and a stalled operation holds up only its own client.
func TestFrontendOversubscribedOrder(t *testing.T) {
	t.Run("shards=4", func(t *testing.T) { testOversubscribed(t, 4, 60, 0) })
	t.Run("shards=1,stalls", func(t *testing.T) { testOversubscribed(t, 1, 20, 500) })
}

// testOversubscribed runs the 64-client script, keys keys per client; a
// non-zero stallEvery puts the flushing client to sleep on every
// stallEvery-th flush.
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
	fe := NewFrontend(s, 0)
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
	if got := s.Count(); got != 0 {
		t.Errorf("Count = %d after every key was deleted", got)
	}
	fe.Close()
	// The clients have returned from wg.Done but may not have exited yet.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before NewFrontend", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
