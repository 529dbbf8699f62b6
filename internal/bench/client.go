package bench

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"dash/internal/core"
	"dash/internal/obs"
	"dash/internal/service"
	"dash/internal/workload"
)

// client is one benchmark goroutine: it fills its one reusable request from
// its operation stream and runs it, through the frontend in a service cell
// or straight on the table in a direct cell, before it draws the next. The
// request and its encode buffers are reused, so the measured phase stays
// allocation-free.
type client struct {
	cell   *cell
	sim    workload.ClientSim
	stream *workload.SimStream

	// The operation in flight: its request, the request's key buffer, when
	// its timed span started and what kind of workload op it is.
	req   service.Request
	kbuf  []byte
	start time.Time
	kind  workload.OpKind

	hist       obs.Histogram
	counts     Counts
	reconnects int64
	updateSalt uint64
}

// runPhase drives every client through its share of totalOps operations,
// recording latency when measured is true. The first client error (pool
// exhaustion, lost-update anomalies surfaced as errors) stops the phase.
func runPhase(clients []*client, totalOps int64, measured bool) error {
	n := int64(len(clients))
	var (
		wg       sync.WaitGroup
		stopped  atomic.Bool
		firstErr atomic.Pointer[error]
	)
	for i, c := range clients {
		ops := totalOps / n
		if int64(i) < totalOps%n {
			ops++
		}
		wg.Add(1)
		go func(c *client, ops int64) {
			defer wg.Done()
			if err := c.run(ops, measured, &stopped); err != nil && !errors.Is(err, errStopped) {
				e := err
				if firstErr.CompareAndSwap(nil, &e) {
					stopped.Store(true)
				}
			}
		}(c, ops)
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return *e
	}
	return nil
}

// run drives ops operations. The timed span of an operation starts after
// its request is encoded: in a direct cell it is exactly the engine call,
// in a service cell Submit through Wait.
func (c *client) run(ops int64, measured bool, stopped *atomic.Bool) error {
	fe, tb := c.cell.fe, c.cell.tables[0] // tb is the whole engine when fe is nil
	for i := int64(0); i < ops; i++ {
		if stopped.Load() {
			return errStopped
		}
		if c.stream.NewSession() {
			c.reconnects++
		}
		c.fill(c.stream.Next())
		if measured {
			c.start = time.Now()
		}
		var res service.Result
		if fe != nil {
			fe.Submit(&c.req)
			res = c.req.Wait()
		} else {
			res = service.Exec(tb, &c.req)
		}
		if err := c.complete(&res, measured); err != nil {
			return err
		}
	}
	return nil
}

// fill encodes op into the client's request: the one place a workload.Op
// becomes a service.Request. Keys that have a VarSpec (the mix's, or their
// tenant's) go through the []byte API, encoded into reusable buffers.
func (c *client) fill(op workload.Op) {
	r := &c.req
	c.kind = op.Kind
	spec := c.sim.SpecFor(op.Key)
	if spec != nil {
		c.kbuf = spec.AppendKey(c.kbuf[:0], op.Key)
		r.KeyB = c.kbuf
	} else {
		r.KeyB = nil
		r.Key = op.Key
	}
	switch op.Kind {
	case workload.OpInsert:
		r.Op = service.OpInsert
		if spec != nil {
			r.ValueB = spec.AppendValue(r.ValueB[:0], op.Key, 0)
		} else {
			r.Value = op.Key ^ 0x9e3779b97f4a7c15
		}
	case workload.OpRead, workload.OpReadNeg:
		r.Op = service.OpGet
	case workload.OpUpdate:
		r.Op = service.OpUpdate
		if spec != nil {
			// A fresh salt per update changes the value's content and
			// usually its length, exercising the copy-on-write path.
			c.updateSalt++
			r.ValueB = spec.AppendValue(r.ValueB[:0], op.Key, c.updateSalt)
		} else {
			r.Value = op.Key + 1
		}
	case workload.OpDelete:
		r.Op = service.OpDelete
	}
}

// complete records the latency of the client's finished request and
// tallies its outcome. Insert rejections that add no record are counted,
// not fatal.
func (c *client) complete(res *service.Result, measured bool) error {
	if measured {
		c.hist.Record(time.Since(c.start).Nanoseconds())
	}
	if res.ValueB != nil {
		c.req.ValueB = res.ValueB // keep a Get's grown read buffer for reuse
	}
	ct := &c.counts
	if c.kind == workload.OpInsert {
		switch {
		case res.Err == nil:
			ct.InsertOK++
		case errors.Is(res.Err, core.ErrKeyExists):
			ct.InsertDup++
		case errors.Is(res.Err, core.ErrSegmentOverflow):
			ct.InsertOverflow++
		case errors.Is(res.Err, core.ErrRecordTooLarge):
			ct.InsertTooLarge++
		default:
			return res.Err
		}
		return nil
	}
	if res.Err != nil {
		return res.Err
	}
	var found, notFound *int64
	switch c.kind {
	case workload.OpRead:
		found, notFound = &ct.ReadHit, &ct.ReadMiss
	case workload.OpReadNeg:
		found, notFound = &ct.NegHit, &ct.NegMiss
	case workload.OpUpdate:
		found, notFound = &ct.UpdateOK, &ct.UpdateNF
	case workload.OpDelete:
		found, notFound = &ct.DeleteOK, &ct.DeleteNF
	}
	if res.Found {
		*found++
	} else {
		*notFound++
	}
	return nil
}
