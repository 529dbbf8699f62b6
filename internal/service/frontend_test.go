package service

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dash/internal/core"
	"dash/internal/pmem"
)

// The frontend must reduce real fences versus unbatched execution of the
// same pipelined write load, while acknowledging every request.
func TestFrontendBatchReducesFences(t *testing.T) {
	const ops = 2048
	run := func(batch int) (fences uint64, saved uint64) {
		s := newShards(t, 1, 3)
		defer s.Close()
		fe := NewFrontend(s, batch)
		base := s.Pool(0).Stats()
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				reqs := make([]*Request, 8) // pipeline window of 8
				for i := range reqs {
					reqs[i] = &Request{}
				}
				for i := 0; i < ops/4; i++ {
					r := reqs[i%len(reqs)]
					if i >= len(reqs) {
						if res := r.Wait(); res.Err != nil {
							t.Errorf("insert: %v", res.Err)
						}
					}
					r.Op = OpInsert
					r.Key = uint64(w)<<32 | uint64(i)
					r.Value = uint64(i)
					fe.Submit(r)
				}
				for _, r := range reqs {
					r.Wait()
				}
			}(w)
		}
		wg.Wait()
		fe.Close()
		win := s.Pool(0).Stats().Sub(base)
		return win.Fences, fe.Metrics().Snapshot().Counters["service.batch.flush_saved"]
	}

	unbatched, _ := run(1)
	batched, saved := run(16)
	if batched >= unbatched {
		t.Fatalf("batch=16 fences %d, want < batch=1 fences %d", batched, unbatched)
	}
	if saved == 0 {
		t.Fatal("flush_saved = 0 with batch=16, want > 0")
	}
}

// Pipelined mixed operations across 4 shards under -race, with pool sizes
// and key volume chosen so shards split segments concurrently while reads,
// updates and deletes run against them.
func TestFrontendPipelinedMixedOpsRace(t *testing.T) {
	s, err := New(Config{Shards: 4, PoolSize: 16 << 20, Seed: 21, InitialDepth: 1})
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
				if window[slot].fe != nil {
					check(slot)
				}
				kinds[slot], keys[slot] = kind, key
				r := window[slot]
				r.Op, r.Key, r.Value = op, key, val
				fe.Submit(r)
			}
			slot := 0
			for i := 0; i < ops; i++ {
				key := uint64(w)<<40 | uint64(i)
				// insert → read → (every 4th) update → delete, interleaved
				// through the pipeline so several are in flight at once.
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
				if window[i].fe != nil {
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

// A read-back after the race above also exercises Get on the uint64 path
// through Submit from the test goroutine (single request, no pipeline).
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
// loss mid-batch.
type crashNow struct{}

// Crash in the middle of a batch: the shard dies, its batch and everything
// queued behind it fail with ErrShardDown (nothing in them was
// acknowledged), other shards keep serving, and reopening every shard
// recovers every acknowledged write. The panic unwinds whichever client's
// Wait or Submit happens to be the shard's combiner, and is recovered
// there: with one client that is the only caller there is, with four
// pipelined ones it is any of them, helpers from the other shard included.
func TestFrontendCrashMidBatchRecovery(t *testing.T) {
	for _, clients := range []int{1, 4} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			testCrashMidBatch(t, clients)
		})
	}
}

func testCrashMidBatch(t *testing.T, clients int) {
	cfg := Config{Shards: 2, PoolSize: 4 << 20, Seed: 17, TrackCrashes: true}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fe := NewFrontend(s, 8)

	// Preload through the frontend; all acknowledged, so all must survive.
	acked := make(map[uint64]uint64)
	var ackedOn [2]uint64 // requests that completed without ErrShardDown, per shard
	r := &Request{}
	for k := uint64(0); k < 2000; k++ {
		r.Op, r.Key, r.Value = OpInsert, k, k*5+1
		fe.Submit(r)
		if res := r.Wait(); res.Err != nil {
			t.Fatalf("preload %d: %v", k, res.Err)
		}
		acked[k] = k*5 + 1
		ackedOn[s.Route(k)]++
	}

	// Arm a countdown crash on shard 0's pool: power loss a few hundred
	// flushes into the post-preload write stream, mid-batch.
	var left atomic.Int32
	left.Store(300)
	crashPool := s.Pool(0)
	crashPool.SetFlushHook(func() {
		if left.Add(-1) == 0 {
			crashPool.Crash()
			panic(crashNow{})
		}
	})

	// Drive pipelined inserts until shard 0 reports down, and then some more
	// to see the other shard keep acknowledging. Requests that completed
	// without error before the crash are acknowledged — the recovery oracle.
	// Unacknowledged (failed) ones may be partially written but were never
	// both published and fenced as a batch; the engine's own crash
	// consistency covers slot-level atomicity, the frontend only promises
	// "no ack before tail fence".
	const afterDown = 200 // acks each client collects from shard 1 after it saw shard 0 down
	type tally struct {
		acked   map[uint64]uint64
		ackedOn [2]uint64
		sawDown bool
	}
	tallies := make([]tally, clients)
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func(c int, tl *tally) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("client %d observed a panic: %v", c, p)
				}
			}()
			tl.acked = make(map[uint64]uint64)
			window := make([]*Request, 8)
			wkeys := make([]uint64, len(window))
			for i := range window {
				window[i] = &Request{}
			}
			moreAcks := 0
			harvest := func(slot int) {
				res := window[slot].Wait()
				shard := s.Route(wkeys[slot])
				switch {
				case errors.Is(res.Err, ErrShardDown):
					if shard != 0 {
						t.Errorf("client %d: shard %d reported down: %v", c, shard, res.Err)
					}
					tl.sawDown = true
					return
				case res.Err == nil:
					tl.acked[wkeys[slot]] = wkeys[slot]*5 + 1
				case !errors.Is(res.Err, core.ErrKeyExists):
					t.Errorf("client %d: unexpected error: %v", c, res.Err)
				}
				tl.ackedOn[shard]++
				// Per-shard FIFO: once one of this client's shard-0 requests
				// failed, every later one sits behind the crash.
				if tl.sawDown {
					if shard == 0 {
						t.Errorf("client %d: key %d acknowledged on the dead shard", c, wkeys[slot])
					}
					moreAcks++
				}
			}
			for i := 0; i < 20000 && moreAcks < afterDown; i++ {
				k := uint64(c+1)<<40 | uint64(i)
				slot := i % len(window)
				if i >= len(window) {
					harvest(slot)
				}
				wkeys[slot] = k
				w := window[slot]
				w.Op, w.Key, w.Value = OpInsert, k, k*5+1
				fe.Submit(w)
			}
			for i := range window {
				if window[i].fe != nil {
					harvest(i)
				}
			}
			if moreAcks < afterDown {
				t.Errorf("client %d: %d acks after the crash, want %d: crash hook never fired or shard 1 stopped", c, moreAcks, afterDown)
			}
		}(c, &tallies[c])
	}
	wg.Wait()
	crashPool.SetFlushHook(nil)
	for c := range tallies {
		if !tallies[c].sawDown {
			t.Fatalf("client %d never saw ErrShardDown", c)
		}
		for k, v := range tallies[c].acked {
			acked[k] = v
		}
		for i := range ackedOn {
			ackedOn[i] += tallies[c].ackedOn[i]
		}
	}
	// The op meters count completed batches only: what a shard executed is
	// exactly what it acknowledged, the crashed batch and the requests swept
	// out of the queue behind it are in neither.
	snap := fe.Metrics().Snapshot()
	for i, want := range ackedOn {
		if got := snap.Counters[fmt.Sprintf("service.shard.%d.ops", i)]; got != want {
			t.Errorf("shard %d executed %d requests, acknowledged %d", i, got, want)
		}
	}
	if n := fe.windowOverlaps.Load(); n != 0 {
		t.Errorf("%d fence windows overlapped on one shard", n)
	}

	// A fresh submit routed to the dead shard fails fast with ErrShardDown.
	probeDead := func() bool {
		for k := uint64(1) << 51; ; k++ {
			if s.Route(k) != 0 {
				continue
			}
			p := &Request{Op: OpInsert, Key: k, Value: 1}
			fe.Submit(p)
			res := p.Wait()
			return errors.Is(res.Err, ErrShardDown)
		}
	}
	if !probeDead() {
		t.Fatal("dead shard accepted a request without ErrShardDown")
	}
	fe.Close()

	// Reopen all shards: shard 1 closes cleanly, shard 0 reopens its crash
	// image. Every acknowledged write must be there.
	s.Table(1).Close()
	pools := []*pmem.Pool{s.Pool(0), s.Pool(1)}
	re, err := Open(pools, Config{Seed: cfg.Seed})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer re.Close()
	for k, want := range acked {
		v, ok := re.Table(re.Route(k)).Get(k)
		if !ok {
			t.Fatalf("acknowledged key %d lost after crash", k)
		}
		if v != want {
			t.Fatalf("key %d = %d after crash, want %d", k, v, want)
		}
	}
	// The recovered service keeps working end to end.
	fe2 := NewFrontend(re, 8)
	defer fe2.Close()
	p := &Request{Op: OpInsert, Key: 1 << 50, Value: 9}
	fe2.Submit(p)
	if res := p.Wait(); res.Err != nil {
		t.Fatalf("post-recovery insert: %v", res.Err)
	}
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

// The obs meters exist under the documented names and move.
func TestFrontendMeters(t *testing.T) {
	s := newShards(t, 2, 6)
	defer s.Close()
	fe := NewFrontend(s, 4)
	const ops = 2000
	r := &Request{}
	for k := uint64(0); k < ops; k++ {
		r.Op, r.Key, r.Value = OpInsert, k, k
		fe.Submit(r)
		r.Wait()
	}
	fe.Close()
	snap := fe.Metrics().Snapshot()
	batches := snap.Hists["service.batch.size"].Count
	if batches == 0 {
		t.Fatal("service.batch.size never recorded")
	}
	var total uint64
	for i := 0; i < s.N(); i++ {
		total += snap.Counters[fmt.Sprintf("service.shard.%d.ops", i)]
	}
	if total != ops {
		t.Fatalf("per-shard op counters sum to %d, want %d", total, ops)
	}
	for _, g := range []string{"service.shard.imbalance", "service.queue.depth"} {
		if _, ok := snap.Gauges[g]; !ok {
			t.Errorf("gauge %s missing", g)
		}
	}
	for _, c := range []string{"service.batch.flush_saved", "service.combine.own", "service.combine.helped",
		"service.wait.parked", "service.submit.full"} {
		if _, ok := snap.Counters[c]; !ok {
			t.Errorf("counter %s missing", c)
		}
	}
	// One client that waits for each request runs every batch itself, on
	// the request's own shard, and never finds a queue full or a lock taken.
	if own, helped := snap.Counters["service.combine.own"], snap.Counters["service.combine.helped"]; own != batches || helped != 0 {
		t.Errorf("combine.own = %d, combine.helped = %d over %d batches of a lone synchronous client", own, helped, batches)
	}
	if p, f := snap.Counters["service.wait.parked"], snap.Counters["service.submit.full"]; p != 0 || f != 0 {
		t.Errorf("wait.parked = %d, submit.full = %d, want 0 and 0", p, f)
	}
	// The per-batch spans: one exec span per batch, one tail-fence span per
	// batch that elided a fence — every one here, they are all inserts.
	for _, h := range []string{"service.batch.exec_ns", "service.batch.tail_fence_ns"} {
		if got := snap.Hists[h]; got.Count != batches || got.Max <= 0 {
			t.Errorf("%s: %d spans (max %d ns) over %d insert batches", h, got.Count, got.Max, batches)
		}
	}
	// Queue wait is sampled by routing-hash bits: about ops/64 requests.
	if n := snap.Hists["service.queue_wait_ns"].Count; n == 0 || n > ops/queueWaitSamplePeriod*4 {
		t.Errorf("service.queue_wait_ns has %d samples of %d requests, want about 1 in %d", n, ops, queueWaitSamplePeriod)
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
