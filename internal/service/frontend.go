package service

import (
	"errors"
	"fmt"
	"sync/atomic"

	"dash/internal/core"
	"dash/internal/obs"
)

// Frontend: the request front door of Shards.
//
// Submit routes a request to its key's shard and executes it there, on the
// caller's goroutine — as Dash runs every operation on the thread that
// issues it (§4). The shard tables are concurrent tables, so any number of
// clients run operations on one shard at once; the frontend adds no queue,
// lock or goroutine between a client and its table, only the route and a
// per-shard op count.
//
// Durability of acknowledgement: a write is durable when its table call
// returns, made so by the operation's own flush and fence, and the request
// is completed only then, so every acknowledged write is durable in its
// shard's pool. Wait returns the stored Result.
//
// A table operation that unwinds by panic — the simulated crash — is
// recovered in Submit: the shard is marked dead, and that request and every
// later one routed to the shard fail with ErrShardDown.

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
// shard whose table was unwound mid-operation by a simulated crash; none of
// those requests was acknowledged, so none is durable.
var ErrShardDown = errors.New("service: shard executor down")

// ErrClosed is wrapped into results of requests submitted after Close.
var ErrClosed = errors.New("service: frontend closed")

// Result is a completed request's outcome. Err carries engine errors
// (core.ErrKeyExists and friends) and frontend failures (ErrShardDown,
// ErrClosed); Found distinguishes hit from miss for Get/Update/Delete.
type Result struct {
	// Value is the value read by a uint64 Get.
	Value uint64
	// ValueB is the value read by a []byte Get, appended into the request's
	// ValueB buffer.
	ValueB []byte
	// Found reports whether the key existed (Get hit, Update/Delete found).
	Found bool
	// Err is the operation or frontend error, nil on success.
	Err error
}

// Request is one operation. Fill Op, Key and Value (or KeyB and ValueB for
// the variable-length API — a non-nil KeyB selects it), Submit, then Wait.
// A Request may be reused for a new Submit after Wait returns. The zero
// value is ready to use and a Request may be copied.
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

	res Result
}

// Wait returns the result of the request's last Submit, which completed it;
// a never-submitted Request returns a zero Result. Further calls return the
// same Result.
func (r *Request) Wait() Result { return r.res }

// shard is one table as the frontend sees it.
type shard struct {
	tb   *core.Table
	ops  *obs.Counter // operations executed to completion
	dead atomic.Bool  // a crash unwound an operation on the table

	// The two errors a dead shard or a closed frontend turns requests away
	// with, built once: a dead shard makes this path hot.
	errDown, errClosed error
}

// Frontend is the front door to a Shards layer. Construct with NewFrontend,
// Submit from any number of client goroutines, Close when done (before
// closing the Shards).
type Frontend struct {
	shards *Shards
	byIdx  []shard
	closed atomic.Bool
	reg    *obs.Registry
}

// NewFrontend builds the frontend of s; it starts no goroutine. batch is
// ignored: every request runs on its own, on its caller's goroutine.
func NewFrontend(s *Shards, batch int) *Frontend {
	f := &Frontend{shards: s, byIdx: make([]shard, s.N()), reg: obs.NewRegistry()}
	for i := range f.byIdx {
		sh := &f.byIdx[i]
		sh.tb = s.Table(i)
		sh.ops = f.reg.Counter(fmt.Sprintf("service.shard.%d.ops", i))
		sh.errDown = fmt.Errorf("service: shard %d: %w", i, ErrShardDown)
		sh.errClosed = fmt.Errorf("service: shard %d: %w", i, ErrClosed)
	}
	// Imbalance in permille of excess over a perfectly balanced spread:
	// (max shard ops / mean shard ops − 1) × 1000; 0 = perfectly balanced.
	f.reg.Gauge("service.shard.imbalance", func() int64 {
		return int64(1000 * f.Imbalance())
	})
	return f
}

// Metrics returns the frontend's meter registry (per-shard op counters
// and service.shard.imbalance).
func (f *Frontend) Metrics() *obs.Registry { return f.reg }

// Imbalance returns (max shard ops / mean shard ops) − 1 over the ops
// executed so far: 0 for a perfectly even spread, 1.0 when the hottest
// shard carries twice the mean.
func (f *Frontend) Imbalance() float64 {
	var max, sum uint64
	for i := range f.byIdx {
		t := f.byIdx[i].ops.Total()
		sum += t
		if t > max {
			max = t
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(f.byIdx))
	return float64(max)/mean - 1
}

// Submit routes r to its shard and executes it there, on the calling
// goroutine, and completes it: a write is durable when Submit returns. A
// closed frontend or a dead shard refuses the request, with ErrClosed or
// ErrShardDown as its result. Safe from any number of goroutines.
func (f *Frontend) Submit(r *Request) {
	var i int
	if r.KeyB != nil {
		i = f.shards.RouteB(r.KeyB)
	} else {
		i = f.shards.Route(r.Key)
	}
	sh := &f.byIdx[i]
	switch {
	case f.closed.Load():
		r.res = Result{Err: sh.errClosed}
	case sh.dead.Load():
		r.res = Result{Err: sh.errDown}
	default:
		r.res = sh.exec(i, r)
	}
}

// exec runs r on the shard's table. An operation that unwinds via panic —
// the simulated-crash path — is recovered here: the pool's state is
// post-crash, so the shard is marked dead and r fails with ErrShardDown;
// it was not acknowledged.
func (sh *shard) exec(i int, r *Request) (res Result) {
	defer func() {
		if p := recover(); p != nil {
			sh.dead.Store(true)
			res = Result{Err: fmt.Errorf("service: shard %d crashed mid-operation (%v): %w", i, p, ErrShardDown)}
		}
	}()
	res = Exec(sh.tb, r)
	sh.ops.Inc()
	return res
}

// Close refuses further requests: a Submit that begins after Close fails
// with ErrClosed. A Submit already running when Close is called finishes;
// close the Shards only once the clients have returned. Idempotent.
func (f *Frontend) Close() { f.closed.Store(true) }

// Exec applies one request to a table and returns its outcome: the one
// place a request's Op becomes a Table call. Submit calls it on the routed
// shard's table; a caller that owns a bare table (the benchmark harness's
// direct cells) calls it with no frontend in between.
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
