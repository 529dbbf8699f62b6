package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dash/internal/core"
	"dash/internal/obs"
)

// Frontend: the batched asynchronous request pipeline in front of Shards.
//
// Clients submit Requests; Submit routes each to its key's shard queue and
// returns immediately, so one client can keep many requests in flight
// (pipelining). One executor goroutine per shard drains its queue in
// batches of up to the configured batch size and runs each batch inside
// the shard pool's fence-batch window (pmem.Pool.BeginFenceBatch): every
// per-operation fence inside the batch is elided and one ordering fence at
// the batch tail covers them all — the paper's selective-persistence
// economics applied across requests instead of within one.
//
// Durability of acknowledgement is preserved exactly: no request in a
// batch is completed (its Wait unblocked) until after the tail fence, so
// an acknowledged write is durable in its shard's pool even though it
// shared its fence with its batch-mates. The single-writer requirement of
// the fence window holds by construction — the shard's executor goroutine
// is the only goroutine executing operations on that shard.

// Op enumerates the request kinds the frontend accepts.
type Op uint8

const (
	// OpGet looks a key up.
	OpGet Op = iota
	// OpInsert inserts a fresh key.
	OpInsert
	// OpUpdate overwrites an existing key's value.
	OpUpdate
	// OpDelete removes a key.
	OpDelete
)

// ErrShardDown is wrapped into the results of requests that reached a
// shard whose executor died mid-batch (a simulated crash unwound it); none
// of those requests was acknowledged, so none is durable.
var ErrShardDown = errors.New("service: shard executor down")

// ErrClosed is wrapped into results of requests submitted after Close.
var ErrClosed = errors.New("service: frontend closed")

// Result is a completed request's outcome. Err carries engine errors
// (core.ErrKeyExists and friends) and pipeline failures (ErrShardDown,
// ErrClosed); Found distinguishes hit from miss for Get/Update/Delete.
type Result struct {
	// Value is the value read by a uint64 Get.
	Value uint64
	// ValueB is the value read by a []byte Get, appended into the request's
	// ValueB buffer.
	ValueB []byte
	// Found reports whether the key existed (Get hit, Update/Delete found).
	Found bool
	// Err is the operation or pipeline error, nil on success.
	Err error
}

// Request is one pipelined operation. Fill Op, Key and Value (or KeyB and
// ValueB for the variable-length API — a non-nil KeyB selects it), Submit,
// then Wait. A Request may be reused for a new Submit after Wait returns;
// the buffers it carries must not be touched between Submit and Wait.
type Request struct {
	// Op is the operation kind.
	Op Op
	// Key is the uint64 key (ignored when KeyB is non-nil).
	Key uint64
	// Value is the uint64 value for Insert/Update.
	Value uint64
	// KeyB, when non-nil, selects the variable-length API with this key.
	KeyB []byte
	// ValueB is the variable-length value for Insert/Update, and the reuse
	// buffer a variable-length Get appends its result into.
	ValueB []byte

	res  Result
	done chan struct{}
}

// Wait blocks until the request completes and returns its result. Must be
// called exactly once per Submit, by the submitting client.
func (r *Request) Wait() Result {
	<-r.done
	return r.res
}

// Frontend is the batched async front door to a Shards layer. Construct
// with NewFrontend, Submit from any number of client goroutines, Close
// when done (before closing the Shards).
type Frontend struct {
	shards *Shards
	batch  int
	queues []chan *Request
	dead   []atomic.Bool // shard executor unwound by a crash
	wg     sync.WaitGroup
	closed atomic.Bool
	// closeMu orders Submit's enqueue against Close's channel close so a
	// racing Submit fails cleanly instead of sending on a closed channel.
	closeMu sync.RWMutex

	reg        *obs.Registry
	batchSize  *obs.Histogram
	flushSaved *obs.Counter
	shardOps   []*obs.Counter
}

// NewFrontend starts one executor goroutine per shard, each batching up to
// batch requests per fence window (batch < 1 means 1: unbatched, one fence
// per write op — the baseline configuration benchmarks compare against).
func NewFrontend(s *Shards, batch int) *Frontend {
	if batch < 1 {
		batch = 1
	}
	f := &Frontend{
		shards: s,
		batch:  batch,
		queues: make([]chan *Request, s.N()),
		dead:   make([]atomic.Bool, s.N()),
	}
	f.initObs()
	qcap := 4 * batch
	if qcap < 16 {
		qcap = 16
	}
	for i := range f.queues {
		f.queues[i] = make(chan *Request, qcap)
		f.wg.Add(1)
		go f.run(i)
	}
	return f
}

// initObs builds the frontend's meter registry, following the engine's
// naming convention (core/obs.go) under the service.* prefix.
func (f *Frontend) initObs() {
	reg := obs.NewRegistry()
	f.reg = reg
	f.batchSize = reg.Histogram("service.batch.size")
	f.flushSaved = reg.Counter("service.batch.flush_saved")
	f.shardOps = make([]*obs.Counter, f.shards.N())
	for i := range f.shardOps {
		f.shardOps[i] = reg.Counter(fmt.Sprintf("service.shard.%d.ops", i))
	}
	reg.Gauge("service.queue.depth", func() int64 {
		var n int64
		for _, q := range f.queues {
			n += int64(len(q))
		}
		return n
	})
	// Imbalance in permille of excess over a perfectly balanced spread:
	// (max shard ops / mean shard ops − 1) × 1000; 0 = perfectly balanced.
	reg.Gauge("service.shard.imbalance", func() int64 {
		return int64(1000 * f.Imbalance())
	})
}

// Metrics returns the frontend's meter registry (service.batch.size,
// service.batch.flush_saved, service.shard.imbalance, service.queue.depth,
// per-shard op counters).
func (f *Frontend) Metrics() *obs.Registry { return f.reg }

// Imbalance returns (max shard ops / mean shard ops) − 1 over the ops
// executed so far: 0 for a perfectly even spread, 1.0 when the hottest
// shard carries twice the mean.
func (f *Frontend) Imbalance() float64 {
	var max, sum uint64
	for _, c := range f.shardOps {
		t := c.Total()
		sum += t
		if t > max {
			max = t
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(f.shardOps))
	return float64(max)/mean - 1
}

// Submit routes r to its shard's queue and returns once enqueued. The
// request completes asynchronously; Wait blocks for it. Safe from any
// number of goroutines.
func (f *Frontend) Submit(r *Request) {
	if r.done == nil {
		r.done = make(chan struct{}, 1)
	}
	r.res = Result{}
	var shard int
	if r.KeyB != nil {
		shard = f.shards.RouteB(r.KeyB)
	} else {
		shard = f.shards.Route(r.Key)
	}
	f.closeMu.RLock()
	if f.closed.Load() || f.dead[shard].Load() {
		f.closeMu.RUnlock()
		r.res.Err = f.downErr(shard)
		r.done <- struct{}{}
		return
	}
	f.queues[shard] <- r
	f.closeMu.RUnlock()
}

func (f *Frontend) downErr(shard int) error {
	if f.closed.Load() {
		return fmt.Errorf("service: shard %d: %w", shard, ErrClosed)
	}
	return fmt.Errorf("service: shard %d: %w", shard, ErrShardDown)
}

// Close drains and stops every shard executor. Pending requests complete
// first; requests submitted after Close fail with ErrClosed. Idempotent.
func (f *Frontend) Close() {
	if f.closed.Swap(true) {
		return
	}
	f.closeMu.Lock()
	for _, q := range f.queues {
		close(q)
	}
	f.closeMu.Unlock()
	f.wg.Wait()
}

// run is shard's executor loop: block for one request, then opportunistically
// drain up to batch−1 more without blocking, and execute them as one
// fence-amortized batch. Group size adapts to load by itself — an idle
// service degenerates to batch size 1 with no added latency, a loaded one
// rides the queue depth up to the cap.
func (f *Frontend) run(shard int) {
	defer f.wg.Done()
	q := f.queues[shard]
	buf := make([]*Request, 0, f.batch)
	for {
		r, ok := <-q
		if !ok {
			return
		}
		buf = append(buf[:0], r)
	fill:
		for len(buf) < f.batch {
			select {
			case r2, ok2 := <-q:
				if !ok2 {
					f.execBatch(shard, buf)
					return
				}
				buf = append(buf, r2)
			default:
				break fill
			}
		}
		if !f.execBatch(shard, buf) {
			f.failPending(shard)
			return
		}
	}
}

// failPending takes over a dead shard's queue, failing every request that
// arrives (or was already enqueued) until Close closes the queue — so no
// racing Submit ever blocks on a shard with no executor.
func (f *Frontend) failPending(shard int) {
	for r := range f.queues[shard] {
		r.res = Result{Err: f.downErr(shard)}
		r.done <- struct{}{}
	}
}

// execBatch executes one batch inside the shard pool's fence window and
// acknowledges every request only after the tail fence. Returns false when
// the batch unwound via panic — the simulated-crash path: the pool's state
// is post-crash, no request in the batch was acknowledged as successful,
// and the shard is marked dead.
func (f *Frontend) execBatch(shard int, reqs []*Request) (alive bool) {
	tb := f.shards.Table(shard)
	pool := f.shards.Pool(shard)
	defer func() {
		if p := recover(); p != nil {
			f.dead[shard].Store(true)
			pool.AbortFenceBatch()
			err := fmt.Errorf("service: shard %d crashed mid-batch (%v): %w", shard, p, ErrShardDown)
			for _, r := range reqs {
				r.res = Result{Err: err}
				r.done <- struct{}{}
			}
			alive = false
		}
	}()
	pool.BeginFenceBatch()
	for _, r := range reqs {
		r.res = Exec(tb, r)
	}
	elided := pool.EndFenceBatch()
	if elided > 0 {
		f.flushSaved.Add(elided - 1)
	}
	f.batchSize.Record(int64(len(reqs)))
	f.shardOps[shard].Add(uint64(len(reqs)))
	// Acknowledge strictly after the tail fence: every acknowledged write
	// in the batch is durable.
	for _, r := range reqs {
		r.done <- struct{}{}
	}
	return true
}

// Exec applies one request to a table and returns its outcome: the one
// place a request's Op becomes a Table call. The shard executors call it
// inside a batch; a caller that owns a bare table (the benchmark harness's
// direct cells) calls it synchronously, with no frontend in between.
func Exec(tb *core.Table, r *Request) Result {
	if r.KeyB != nil {
		switch r.Op {
		case OpGet:
			v, ok := tb.GetBAppend(r.ValueB[:0], r.KeyB)
			return Result{ValueB: v, Found: ok}
		case OpInsert:
			return Result{Err: tb.InsertB(r.KeyB, r.ValueB)}
		case OpUpdate:
			ok, err := tb.UpdateB(r.KeyB, r.ValueB)
			return Result{Found: ok, Err: err}
		case OpDelete:
			return Result{Found: tb.DeleteB(r.KeyB)}
		}
		return Result{Err: fmt.Errorf("service: unknown op %d", r.Op)}
	}
	switch r.Op {
	case OpGet:
		v, ok := tb.Get(r.Key)
		return Result{Value: v, Found: ok}
	case OpInsert:
		return Result{Err: tb.Insert(r.Key, r.Value)}
	case OpUpdate:
		ok, err := tb.Update(r.Key, r.Value)
		return Result{Found: ok, Err: err}
	case OpDelete:
		return Result{Found: tb.Delete(r.Key)}
	}
	return Result{Err: fmt.Errorf("service: unknown op %d", r.Op)}
}
