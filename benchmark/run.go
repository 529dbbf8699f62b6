package main

// run.go drives one workload: set-up, the measured windows, and the clients'
// closed loops. Inside a window a client does only: the call, one clock read
// (the end of op i is the start of op i+1), one histogram increment and one
// compare with the reply its model expects.

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

var processStart = time.Now()

// now is nanoseconds on the process's monotonic clock.
func now() int64 { return int64(time.Since(processStart)) }

// runConfig is what the flags select.
type runConfig struct {
	seed     uint64
	seconds  int
	trace    bool
	short    bool
	sabotage bool               // self-test: corrupt one expected reply and one post-crash byte
	probes   map[string]float64 // the layers' unit costs (runProbes), reported by a traced run
}

// phaseKind says how a window runs.
type phaseKind uint8

const (
	phUntraced phaseKind = iota // full cost model, no spans: the end-to-end numbers
	phTraced                    // full cost model, spans around every call
	phNoModel                   // cost model removed: the CPU peel
	phDirect                    // svc_pipelined only: same stream straight to the shard tables, traced
)

var phaseNames = [...]string{"untraced", "traced", "nomodel", "direct"}

// plan lists the windows of a run. The untraced run is numWindows full-model
// windows. The traced run alternates untraced and traced windows (so drift
// cancels in the overhead figure), then peels: the cost model off, and for
// the service the frontend bypassed.
func plan(trace, svc bool) []phaseKind {
	var p []phaseKind
	if !trace {
		for i := 0; i < numWindows; i++ {
			p = append(p, phUntraced)
		}
		return p
	}
	for i := 0; i < 6; i++ {
		p = append(p, phUntraced, phTraced)
	}
	p = append(p, phNoModel, phNoModel, phNoModel, phNoModel)
	if svc {
		p = append(p, phDirect, phDirect, phDirect, phDirect)
	}
	return p
}

// slot is one outstanding pipelined request.
type slot struct {
	req              request
	start            int64 // Submit called
	submitEnd, waitT int64 // traced: Submit returned, Wait called
}

// client is one closed-loop caller with its generator and oracle.
type client struct {
	id      int
	gen     generator
	ops     []op
	kh      [numKinds]hist // op latency by kind, current window
	startAt int64          // current window
	endAt   int64
	genNS   int64 // generating the current window's ops
	failed  int64 // replies that contradicted the model, current window
	errs    [numErrClasses]int64
	valBuf  []byte
	ring    [pipelineDepth]slot
	tr      *tracer // non-nil in traced windows
}

// instance is a set-up workload: the engine and its clients.
type instance struct {
	w         *workload
	eng       *engine
	clients   []*client
	flipReply bool // self-test: corrupt the next window's first expected Get reply
	// serial makes the clients write one after another. The durability
	// replay of var_churn sets it: with crash tracking on, Pool.Flush reads a
	// cacheline another goroutine's VarLog.Append is copying a neighbouring
	// blob into — a data race in the simulator (go test -race finds it),
	// which a replay that checks the simulator's crash image must stay out of.
	serial bool
}

// setup builds the engine, preloads it at CPU speed from the clients in
// parallel, installs the cost model (unless the replay asks for none) and
// warms up with the first warm ops of the stream.
func setup(w *workload, seed uint64, preload, warm int, poolSize uint64, track bool) (*instance, error) {
	sp := engineSpec{poolSize: poolSize, track: track}
	if w.driver == drvSvc {
		sp.shards, sp.batch = svcShards, svcBatch
	}
	eng, err := newEngine(sp)
	if err != nil {
		return nil, err
	}
	in := &instance{w: w, eng: eng, serial: track && w.driver == drvVar}
	var z *zipf
	if w.mix.zipfTheta > 0 {
		z = newZipf(preload, w.mix.zipfTheta)
	}
	for c := 0; c < numClients; c++ {
		cl := &client{id: c, valBuf: make([]byte, 0, 512)}
		cl.gen = generator{m: newModel(c, preload, w.driver == drvVar, seed), mix: w.mix, z: z,
			r: rng{s: mix64(seed*golden + uint64(c))}}
		in.clients = append(in.clients, cl)
	}
	errs := make([]error, numClients)
	in.forEachWriter(func(c *client) { errs[c.id] = c.preload(eng) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if !track {
		eng.setModel(true)
	}
	if warm > 0 {
		in.window(warm, phUntraced)
	}
	return in, nil
}

// forEachWriter runs f, which writes to the tables, for every client: at once,
// or in turn when the instance is serial.
func (in *instance) forEachWriter(f func(c *client)) {
	if !in.serial {
		forEachClient(in.clients, f)
		return
	}
	for _, c := range in.clients {
		f(c)
	}
}

// forEachClient runs f for every client at once and waits for all.
func forEachClient(clients []*client, f func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(c)
		}()
	}
	wg.Wait()
}

// preload inserts the model's initial records straight into the tables.
func (c *client) preload(e *engine) error {
	m := c.gen.m
	var kbuf, vbuf []byte
	for _, id := range m.ids {
		key := m.key(id)
		seed := valueSeed(key, 0)
		var err error
		if m.varLen {
			kbuf = appendVarKey(kbuf[:0], key)
			vbuf = appendStream(vbuf[:0], seed, varValLen(seed))
			err = e.tables[0].insertB(kbuf, vbuf)
		} else {
			err = e.tableFor(key).insert(key, seed)
		}
		if err != nil {
			return fmt.Errorf("preload client %d: %w", c.id, err)
		}
	}
	return nil
}

// discard stops the instance's goroutines and lets its memory go.
func (in *instance) discard() {
	in.eng.closeFrontend()
	in.eng, in.clients = nil, nil
	runtime.GC()
}

// windowResult is one measured window.
type windowResult struct {
	kind       phaseKind
	ops        int
	wallNS     int64 // first client start → last client end
	clientNS   int64 // Σ over clients of their own elapsed time
	genNS      int64 // Σ over clients of generating the window's ops
	p50, p99   float64
	loadFactor float64
	pm         pmCounts
	failed     int64
	kh         [numKinds]hist
}

// all merges the window's per-kind histograms.
func (r *windowResult) all() *hist {
	var h hist
	for k := range r.kh {
		h.merge(&r.kh[k])
	}
	return &h
}

// window generates n ops per client (untimed), forces a GC, then runs the
// clients together and measures.
func (in *instance) window(n int, kind phaseKind) windowResult {
	forEachClient(in.clients, func(c *client) {
		t0 := now()
		if cap(c.ops) < n {
			c.ops = make([]op, n)
		}
		c.ops = c.ops[:n]
		c.gen.fill(c.ops)
		c.genNS = now() - t0
		c.kh = [numKinds]hist{}
		c.failed = 0
	})
	if in.flipReply {
		for i := range in.clients[0].ops {
			if o := &in.clients[0].ops[i]; o.kind == opGet {
				o.val ^= 1
				in.flipReply = false
				break
			}
		}
	}
	runtime.GC()
	pm0 := in.eng.pmStats()
	in.forEachWriter(func(c *client) {
		switch {
		case in.w.driver == drvVar:
			c.runVar(in.eng)
		case in.w.driver == drvSvc && kind != phDirect:
			c.runSvc(in.eng)
		default:
			c.runU64(in.eng)
		}
	})
	res := windowResult{kind: kind, ops: n * len(in.clients), pm: in.eng.pmStats().sub(pm0),
		loadFactor: in.eng.stats().loadFactor()}
	first, last := in.clients[0].startAt, in.clients[0].endAt
	for _, c := range in.clients {
		first, last = min(first, c.startAt), max(last, c.endAt)
		res.clientNS += c.endAt - c.startAt
		res.genNS += c.genNS
		res.failed += c.failed
		for k := range res.kh {
			res.kh[k].merge(&c.kh[k])
		}
	}
	res.wallNS = last - first
	// The window's p50 is the mix-weighted mean of the per-kind medians (the
	// plain median when one kind runs): with half the ops Gets, the plain
	// median sits in the gap between the Get and the write mode and flips
	// between them from window to window. The p99 is the plain one.
	all := res.all()
	for k := range res.kh {
		res.p50 += res.kh[k].quantile(0.5) * float64(res.kh[k].n) / float64(all.n)
	}
	res.p99 = all.quantile(0.99)
	return res
}

func (c *client) fail(err error) {
	c.failed++
	if err != nil {
		c.errs[classify(err)]++
	}
}

// runU64 is the closed loop over the u64 table API. With a service engine it
// is the direct peel: the same stream applied to Shards.Table(Shards.Route(k)).
func (c *client) runU64(e *engine) {
	t := now()
	c.startAt = t
	for i := range c.ops {
		o := &c.ops[i]
		tb := e.tableFor(o.key)
		switch o.kind {
		case opGet:
			if v, found := tb.get(o.key); !found || v != o.val {
				c.fail(nil)
			}
		case opGetMiss:
			if _, found := tb.get(o.key); found {
				c.fail(nil)
			}
		case opInsert:
			if err := tb.insert(o.key, o.val); err != nil {
				c.fail(err)
			}
		case opUpdate:
			if found, err := tb.update(o.key, o.val); !found || err != nil {
				c.fail(err)
			}
		case opDelete:
			if !tb.del(o.key) {
				c.fail(nil)
			}
		}
		t2 := now()
		c.kh[o.kind].add(t2 - t)
		if c.tr != nil {
			c.tr.op(o.kind, t, t2)
		}
		t = t2
	}
	c.endAt = t
}

// runVar is the closed loop over the []byte table API. A Get's value is
// checked on its length and its first and last 8 bytes; the final sweep
// compares every byte.
func (c *client) runVar(e *engine) {
	tb := e.tables[0]
	arena := c.gen.arena
	t := now()
	c.startAt = t
	for i := range c.ops {
		o := &c.ops[i]
		key := arena[o.koff : o.koff+uint32(o.klen)]
		switch o.kind {
		case opGet:
			v, found := tb.getB(c.valBuf[:0], key)
			if !found || len(v) != int(o.vlen) ||
				binary.LittleEndian.Uint64(v) != o.val || binary.LittleEndian.Uint64(v[len(v)-8:]) != o.last {
				c.fail(nil)
			}
		case opGetMiss:
			if _, found := tb.getB(c.valBuf[:0], key); found {
				c.fail(nil)
			}
		case opInsert:
			if err := tb.insertB(key, arena[o.voff:o.voff+uint32(o.vlen)]); err != nil {
				c.fail(err)
			}
		case opUpdate:
			if found, err := tb.updateB(key, arena[o.voff:o.voff+uint32(o.vlen)]); !found || err != nil {
				c.fail(err)
			}
		case opDelete:
			if !tb.delB(key) {
				c.fail(nil)
			}
		}
		t2 := now()
		c.kh[o.kind].add(t2 - t)
		if c.tr != nil {
			c.tr.op(o.kind, t, t2)
		}
		t = t2
	}
	c.endAt = t
}

// runSvc is the pipelined closed loop through the frontend: the client keeps
// pipelineDepth requests outstanding and a request's latency runs from its
// Submit call to its Wait return. Replies stay exact under pipelining
// because one key always routes to one FIFO shard queue.
func (c *client) runSvc(e *engine) {
	n := len(c.ops)
	t := now()
	c.startAt = t
	for i := 0; i < n+pipelineDepth; i++ {
		s := &c.ring[i%pipelineDepth]
		if i >= pipelineDepth {
			o := &c.ops[i-pipelineDepth]
			if c.tr != nil {
				s.waitT = now()
			}
			v, found, err := s.req.wait()
			t = now()
			c.kh[o.kind].add(t - s.start)
			ok := err == nil
			switch o.kind {
			case opGet:
				ok = ok && found && v == o.val
			case opGetMiss:
				ok = ok && !found
			case opUpdate, opDelete:
				ok = ok && found
			}
			if !ok {
				c.fail(err)
			}
			if c.tr != nil {
				c.tr.svcOp(o.kind, s, t)
			}
		} else if i > 0 {
			t = now()
		}
		if i < n {
			o := &c.ops[i]
			s.req.fill(o.kind, o.key, o.val)
			s.start = t
			e.submit(&s.req)
			if c.tr != nil {
				s.submitEnd = now()
			}
		}
	}
	c.endAt = t
}

// median returns the median of xs (the mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}
