package service

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dash/internal/core"
	"dash/internal/hashfn"
	"dash/internal/obs"
)

// Frontend: the batched asynchronous request pipeline in front of Shards.
//
// Clients submit Requests; Submit routes each to its key's shard queue — a
// bounded FIFO — and returns, so one client can keep many requests in
// flight (pipelining). No goroutine belongs to the frontend: a shard's
// queue is run by whichever client needs a result from it (flat combining).
// Each shard has a combiner lock; a client whose Wait finds its request not
// yet done takes the lock if it is free, pops up to the configured batch
// size of requests in FIFO order — its own and everybody else's — and
// executes them inside the shard pool's fence-batch window
// (pmem.Pool.BeginFenceBatch): every per-operation fence inside the batch
// is elided and one ordering fence at the batch tail covers them all — the
// paper's selective-persistence economics applied across requests instead
// of within one. A waiter that finds its shard's lock taken helps another
// shard that has queued work and a free lock, else yields the processor;
// after parkAfterYields fruitless rounds it sleeps in the shard's combiner
// lock itself — sync.Mutex's own spin-then-park, handed on in FIFO order
// under starvation — and, holding it, runs a batch unless its request was
// completed meanwhile. A Submit that finds the queue full waits for room
// the same way. Every batch ends in an Unlock of its shard's lock and a
// sleeper holds no other lock, so "queued work, free lock, every owner
// asleep" is unreachable without a wake-up protocol of the frontend's own.
//
// A request nobody waits for is executed by the next client that runs its
// shard: a waiter combining for a request queued behind it, a Submit that
// finds the queue full, a helper, or Close. The price of owning no
// goroutine is that parallelism is min(waiting clients, shards): one
// pipelined client over two shards runs them on one core.
//
// Durability of acknowledgement is preserved exactly: no request in a
// batch is completed (its state flipped to done, its Wait released) until
// after the tail fence, so an acknowledged write is durable in its shard's
// pool even though it shared its fence with its batch-mates. The
// single-writer requirement of the fence window is the combiner lock: only
// its holder pops from the queue and executes operations on the shard.

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
// shard whose combiner was unwound mid-batch by a simulated crash; none of
// those requests was acknowledged, so none is durable.
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

// A request's state word; reqIdle is the zero Request's, never submitted.
// Submit moves it to reqQueued; the combiner that
// executed it (or the Submit that refused it) moves it to reqDone, strictly
// after the batch's tail fence.
const (
	reqIdle uint32 = iota
	reqQueued
	reqDone
)

// Request is one pipelined operation. Fill Op, Key and Value (or KeyB and
// ValueB for the variable-length API — a non-nil KeyB selects it), Submit,
// then Wait. A Request may be reused for a new Submit after Wait returns;
// the buffers it carries must not be touched between Submit and Wait. The
// zero value is ready to use and a Request may be copied while it is not
// in flight.
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

	res      Result
	fe       *Frontend // set by Submit: Wait runs this frontend's shards
	submitAt int64     // obs.Now() at Submit if queue-wait sampled, else 0
	shard    int32
	// state is driven by sync/atomic functions rather than an atomic.Uint32
	// so that a Request stays copyable under go vet.
	state uint32
}

// Wait returns the request's result, first running its shard — and, while
// another client holds that shard, helping others — until the request is
// done (see Frontend). Call it from the submitting client; once the request
// is done further calls return the same Result.
func (r *Request) Wait() Result {
	if atomic.LoadUint32(&r.state) == reqQueued {
		r.fe.await(r)
	}
	return r.res
}

// complete publishes r.res: the last touch of r by anyone but its owner,
// who may reuse it the moment the word reads reqDone.
func (r *Request) complete() { atomic.StoreUint32(&r.state, reqDone) }

// parkAfterYields is how many fruitless rounds — own shard held by another
// combiner, no other shard to help, runtime.Gosched — a waiter makes before
// it sleeps in its shard's combiner lock. A sleep costs futex hand-offs, the
// very cost this tier was rebuilt to avoid, so the bound only has to keep a
// client whose shard is stuck behind a slow combiner from burning a core
// for long. Measured on the 2-vCPU reference box, benchmark/ svc_pipelined
// (2 clients x 16 outstanding, 2 shards, batch 16), seeds 1–3, k ops/s: 64
// yields 821 865 736; 512 yields 884 1 009 942; 4 096 yields 997 971 1 107;
// never sleeping 938 1 032 925 — 512 is on the plateau. The
// executor-goroutine design this replaced, which parked on every empty
// queue and every pending reply: 586 635 629.
const parkAfterYields = 512

// queueWaitSamplePeriod is the sampling period of service.queue_wait_ns.
// The sample is chosen by the low bits of the routing hash Submit computes
// anyway (the shard index is its high bits), so choosing writes no shared
// state; an unsampled request reads no clock.
const queueWaitSamplePeriod = 64

// shardQueue is one shard's submitted-request FIFO and its combiner lock.
type shardQueue struct {
	// mu guards ring, head and dead; depth is written under it. It is held
	// for a push, a pop or a scan, never across an operation.
	mu    sync.Mutex
	ring  []*Request
	head  int
	dead  bool         // a crash unwound a combiner mid-batch
	depth atomic.Int32 // queued requests; read lock-free by helpers and the gauge

	// combiner is the shard's single-writer lock: its holder alone pops
	// requests and executes them, inside one fence-batch window per batch.
	// Clients TryLock it while they have anything else to do; a client out
	// of yields (sleep) and Close, which must get in, Lock it.
	combiner sync.Mutex
	batch    []*Request   // the holder's current batch
	inWindow atomic.Int32 // goroutines between window open and close; 1 at most

	// The two errors a dead or closed frontend turns requests away with,
	// built once: a dead shard makes this path hot.
	errDown, errClosed error

	_ [64]byte // keep neighbouring shards' queues off one cache line
}

// Frontend is the batched async front door to a Shards layer. Construct
// with NewFrontend, Submit from any number of client goroutines, Close
// when done (before closing the Shards).
type Frontend struct {
	shards *Shards
	batch  int
	queues []shardQueue
	closed atomic.Bool
	// windowOverlaps counts batches that opened a fence window while another
	// goroutine was inside the same shard's: the single-writer invariant
	// broken. Always 0; tests read it.
	windowOverlaps atomic.Uint64

	reg         *obs.Registry
	batchSize   *obs.Histogram
	execNS      *obs.Histogram
	tailFenceNS *obs.Histogram
	queueWaitNS *obs.Histogram
	flushSaved  *obs.Counter
	combineOwn  *obs.Counter
	combineHelp *obs.Counter
	waitParked  *obs.Counter
	submitFull  *obs.Counter
	shardOps    []*obs.Counter
}

// NewFrontend builds the per-shard queues; it starts no goroutine. A
// combiner batches up to batch requests per fence window (batch < 1 means
// 1: unbatched, one fence per write op — the baseline configuration
// benchmarks compare against).
func NewFrontend(s *Shards, batch int) *Frontend {
	if batch < 1 {
		batch = 1
	}
	f := &Frontend{
		shards: s,
		batch:  batch,
		queues: make([]shardQueue, s.N()),
	}
	qcap := 4 * batch
	if qcap < 16 {
		qcap = 16
	}
	for i := range f.queues {
		q := &f.queues[i]
		q.ring = make([]*Request, qcap)
		q.batch = make([]*Request, 0, batch)
		q.errDown = fmt.Errorf("service: shard %d: %w", i, ErrShardDown)
		q.errClosed = fmt.Errorf("service: shard %d: %w", i, ErrClosed)
	}
	f.initObs()
	return f
}

// initObs builds the frontend's meter registry, following the engine's
// naming convention (core/obs.go) under the service.* prefix.
func (f *Frontend) initObs() {
	reg := obs.NewRegistry()
	f.reg = reg
	f.batchSize = reg.Histogram("service.batch.size")
	f.flushSaved = reg.Counter("service.batch.flush_saved")
	// Per batch, not per op: window open → last operation returned, and the
	// tail fence of a batch that owed one.
	f.execNS = reg.Histogram("service.batch.exec_ns")
	f.tailFenceNS = reg.Histogram("service.batch.tail_fence_ns")
	// Submit → popped by a combiner, on a 1-in-queueWaitSamplePeriod sample.
	f.queueWaitNS = reg.Histogram("service.queue_wait_ns")
	// Who ran a batch: a client on the shard it needed a result from (or
	// room in), or one helping another shard while its own was taken.
	f.combineOwn = reg.Counter("service.combine.own")
	f.combineHelp = reg.Counter("service.combine.helped")
	f.waitParked = reg.Counter("service.wait.parked")
	f.submitFull = reg.Counter("service.submit.full")
	f.shardOps = make([]*obs.Counter, f.shards.N())
	for i := range f.shardOps {
		f.shardOps[i] = reg.Counter(fmt.Sprintf("service.shard.%d.ops", i))
	}
	reg.Gauge("service.queue.depth", func() int64 {
		var n int64
		for i := range f.queues {
			n += int64(f.queues[i].depth.Load())
		}
		return n
	})
	// Imbalance in permille of excess over a perfectly balanced spread:
	// (max shard ops / mean shard ops − 1) × 1000; 0 = perfectly balanced.
	reg.Gauge("service.shard.imbalance", func() int64 {
		return int64(1000 * f.Imbalance())
	})
}

// Metrics returns the frontend's meter registry (service.batch.*,
// service.combine.*, service.queue_wait_ns, service.wait.parked,
// service.submit.full, service.shard.imbalance, service.queue.depth,
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

// Submit routes r to its shard's queue and returns once it is enqueued;
// the request completes when some client runs that shard, and Wait does so
// itself if nobody has. A full queue is waited out as Wait waits (waitStep):
// the submitter runs the shard, helps another or yields, and sleeps in the
// shard's combiner lock once that stays fruitless, until there is room. A
// closed frontend or a dead shard refuses the request at once, with
// ErrClosed or ErrShardDown as its result. Safe from any number of
// goroutines.
func (f *Frontend) Submit(r *Request) {
	var h uint64
	if r.KeyB != nil {
		h = hashfn.Hash64(r.KeyB, f.shards.routingSeed)
	} else {
		h = hashfn.HashU64(r.Key, f.shards.routingSeed)
	}
	shard := f.shards.shardOf(h)
	q := &f.queues[shard]
	r.res = Result{}
	r.fe, r.shard, r.submitAt = f, int32(shard), 0
	if h%queueWaitSamplePeriod == 0 {
		r.submitAt = obs.Now()
	}
	atomic.StoreUint32(&r.state, reqQueued)
	for full, yields := false, 0; ; {
		q.mu.Lock()
		// closed and dead are read under the lock Close's drain and a crash's
		// sweep pop under: a request enqueued past this check is one they see.
		if closed := f.closed.Load(); closed || q.dead {
			q.mu.Unlock()
			r.res.Err = q.errDown
			if closed {
				r.res.Err = q.errClosed
			}
			r.complete()
			return
		}
		if n := int(q.depth.Load()); n < len(q.ring) {
			q.ring[(q.head+n)%len(q.ring)] = r
			q.depth.Store(int32(n + 1))
			q.mu.Unlock()
			return
		}
		q.mu.Unlock()
		if !full {
			full = true
			f.submitFull.Inc()
		}
		f.waitStep(r, &yields)
	}
}

// await runs waitStep until r is done.
func (f *Frontend) await(r *Request) {
	ran, yields := 0, 0 // ran: requests this call executed, r among them or not
	for atomic.LoadUint32(&r.state) != reqDone {
		ran += f.waitStep(r, &yields)
	}
	// Having worked for other clients, let them run before this one submits
	// more. With more clients than processors the owners of the requests a
	// combiner executes are mostly not running, and Go does not preempt a
	// goroutine that never blocks for 10 ms: their results would wait for a
	// processor while this client pipelines on. Measured with 4 clients x
	// 32 outstanding on 2 procs over 2 shards: client p99 819–918 µs without
	// this yield, 377–410 with it (executor goroutines: 442–590), at the
	// same 0.95–1.08 Mops/s; with a client per processor it costs nothing
	// measurable, and a client that ran only its own request skips it.
	if ran > 1 {
		runtime.Gosched()
	}
}

// waitStep is one round of a client's wait on r's shard, for r to complete
// (await) or for room in its queue (Submit), and returns how many requests
// it ran: a batch of r's shard if its combiner lock is free, else of
// another shard with queued work and a free lock (help), else none, and the
// processor is yielded. *yields counts the fruitless rounds in a row; the
// round after parkAfterYields of them sleeps in the shard's combiner lock.
func (f *Frontend) waitStep(r *Request, yields *int) int {
	own := int(r.shard)
	n := f.combine(own, own)
	if n == 0 {
		n = f.help(own)
	}
	switch {
	case n > 0:
		*yields = 0
	case *yields < parkAfterYields:
		*yields++
		runtime.Gosched()
	default:
		*yields = 0
		n = f.sleep(r)
	}
	return n
}

// help runs one batch on the first shard other than own that has queued
// work and a free combiner lock, and returns how many requests it ran.
func (f *Frontend) help(own int) int {
	for i := 1; i < len(f.queues); i++ {
		if n := f.combine((own+i)%len(f.queues), own); n > 0 {
			return n
		}
	}
	return 0
}

// sleep takes r's shard's combiner lock with Lock — sync.Mutex spins
// briefly, then parks until an Unlock hands the lock on — and, holding it,
// runs a batch unless r completed meanwhile; it returns how many requests
// it ran. No wake-up can be lost: every batch, the one that completes r or
// frees a queue slot included, ends in an Unlock of the shard's lock, and a
// sleeper holds no other lock. service.wait.parked counts the Locks that
// follow a failed TryLock: taking a free lock is not a sleep.
func (f *Frontend) sleep(r *Request) int {
	q := &f.queues[r.shard]
	if !q.combiner.TryLock() {
		f.waitParked.Inc()
		q.combiner.Lock()
	}
	n := 0
	if atomic.LoadUint32(&r.state) != reqDone {
		n = f.runBatch(int(r.shard), int(r.shard))
	}
	q.combiner.Unlock()
	return n
}

// combine runs one batch of shard's queue if it has work and its combiner
// lock is free, and returns how many requests it ran. own is the shard the
// caller needs served, for the own/helped meters.
func (f *Frontend) combine(shard, own int) int {
	q := &f.queues[shard]
	if q.depth.Load() == 0 || !q.combiner.TryLock() {
		return 0
	}
	n := f.runBatch(shard, own)
	q.combiner.Unlock()
	return n
}

// pop moves up to max requests, in FIFO order, from the queue into q.batch
// and returns them. The caller holds q.combiner.
func (q *shardQueue) pop(max int) []*Request {
	q.mu.Lock()
	n := min(int(q.depth.Load()), max)
	reqs := q.batch[:n]
	for i := range reqs {
		reqs[i] = q.ring[q.head]
		q.ring[q.head] = nil
		if q.head++; q.head == len(q.ring) {
			q.head = 0
		}
	}
	q.depth.Add(int32(-n))
	q.mu.Unlock()
	return reqs
}

// runBatch pops up to batch of shard's requests and executes them as one
// fence-amortized batch, returning how many it ran. The caller holds the
// shard's combiner lock. Group size adapts to load by itself — an idle service
// degenerates to batch size 1 with no added latency, a loaded one rides
// the queue depth up to the cap.
func (f *Frontend) runBatch(shard, own int) int {
	reqs := f.queues[shard].pop(f.batch)
	if len(reqs) == 0 {
		return 0
	}
	if shard == own {
		f.combineOwn.Inc()
	} else {
		f.combineHelp.Inc()
	}
	f.execBatch(shard, reqs)
	return len(reqs)
}

// execBatch executes one batch inside the shard pool's fence window and
// completes every request only after the tail fence. A batch that unwinds
// via panic — the simulated-crash path — is recovered here, in whichever
// client's goroutine is the combiner: the pool's state is post-crash, so
// the shard is marked dead and the batch, everything queued behind it and
// (in Submit) everything that comes later fail with ErrShardDown; nothing
// in the batch was acknowledged as successful.
func (f *Frontend) execBatch(shard int, reqs []*Request) {
	q := &f.queues[shard]
	tb := f.shards.Table(shard)
	pool := f.shards.Pool(shard)
	if q.inWindow.Add(1) != 1 {
		f.windowOverlaps.Add(1)
	}
	defer func() {
		q.inWindow.Add(-1)
		p := recover()
		if p == nil {
			return
		}
		pool.AbortFenceBatch()
		err := fmt.Errorf("service: shard %d crashed mid-batch (%v): %w", shard, p, ErrShardDown)
		for _, r := range reqs {
			r.res = Result{Err: err}
			r.complete()
		}
		q.mu.Lock()
		q.dead = true // under mu: once set, no Submit enqueues
		q.mu.Unlock()
		for rest := q.pop(f.batch); len(rest) > 0; rest = q.pop(f.batch) {
			for _, r := range rest {
				r.res = Result{Err: q.errDown}
				r.complete()
			}
		}
	}()
	t0 := obs.Now()
	pool.BeginFenceBatch()
	for _, r := range reqs {
		if r.submitAt != 0 {
			f.queueWaitNS.Record(t0 - r.submitAt)
		}
		r.res = Exec(tb, r)
	}
	t1 := obs.Now()
	f.execNS.Record(t1 - t0)
	if elided := pool.EndFenceBatch(); elided > 0 {
		f.tailFenceNS.Record(obs.Now() - t1)
		f.flushSaved.Add(elided - 1)
	}
	f.batchSize.Record(int64(len(reqs)))
	f.shardOps[shard].Add(uint64(len(reqs)))
	// Acknowledge strictly after the tail fence: every acknowledged write
	// in the batch is durable.
	for _, r := range reqs {
		r.complete()
	}
}

// Close refuses further requests, then runs every shard's queue dry as its
// combiner: requests submitted before Close complete (executed, or failed
// with ErrShardDown on a dead shard) whether or not anyone waits for them,
// and requests submitted once Close has begun fail with ErrClosed without
// waiting for it to finish. Idempotent.
func (f *Frontend) Close() {
	if f.closed.Swap(true) {
		return
	}
	for i := range f.queues {
		q := &f.queues[i]
		q.combiner.Lock()
		for f.runBatch(i, i) > 0 {
		}
		q.combiner.Unlock()
	}
}

// Exec applies one request to a table and returns its outcome: the one
// place a request's Op becomes a Table call. Combiners call it
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
