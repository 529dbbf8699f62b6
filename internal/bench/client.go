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

// client is one benchmark goroutine: a window of reusable request slots it
// fills from its operation stream. In a service cell the window is the
// client's pipeline over the frontend; in a direct cell it is one slot that
// completes before the next op is drawn. Requests and their encode buffers
// are reused, so the measured phase stays allocation-free.
type client struct {
	cell   *cell
	sim    workload.ClientSim
	stream *workload.SimStream
	slots  []slot
	next   int // round-robin slot cursor

	hist       obs.Histogram
	counts     Counts
	reconnects int64
	updateSalt uint64
}

type slot struct {
	req      service.Request
	kbuf     []byte
	start    time.Time
	kind     workload.OpKind
	inflight bool
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

// run drives ops operations, keeping up to len(slots) in flight, and drains
// the window at session boundaries and at the end of the phase. The timed
// span of an operation starts after its request is encoded: in a direct
// cell it is exactly the engine call.
func (c *client) run(ops int64, measured bool, stopped *atomic.Bool) error {
	fe, tb := c.cell.fe, c.cell.tables[0] // tb is the whole engine when fe is nil
	for i := int64(0); i < ops; i++ {
		if stopped.Load() {
			c.drain(measured) // complete what is in flight before stopping
			return errStopped
		}
		if c.stream.NewSession() {
			if err := c.drain(measured); err != nil {
				return err
			}
			c.reconnects++
		}
		s := &c.slots[c.next]
		if c.next++; c.next == len(c.slots) {
			c.next = 0
		}
		if s.inflight {
			if err := c.wait(s, measured); err != nil {
				return err
			}
		}
		c.fill(s, c.stream.Next())
		if measured {
			s.start = time.Now()
		}
		if fe != nil {
			s.inflight = true
			fe.Submit(&s.req)
			continue
		}
		res := service.Exec(tb, &s.req)
		if err := c.complete(s, &res, measured); err != nil {
			return err
		}
	}
	return c.drain(measured)
}

// drain completes every in-flight request in the window.
func (c *client) drain(measured bool) error {
	var firstErr error
	for i := range c.slots {
		if s := &c.slots[i]; s.inflight {
			if err := c.wait(s, measured); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// fill encodes op into s's request: the one place a workload.Op becomes a
// service.Request. Keys that have a VarSpec (the mix's, or their tenant's)
// go through the []byte API, encoded into the slot's reusable buffers.
func (c *client) fill(s *slot, op workload.Op) {
	r := &s.req
	s.kind = op.Kind
	spec := c.sim.SpecFor(op.Key)
	if spec != nil {
		s.kbuf = spec.AppendKey(s.kbuf[:0], op.Key)
		r.KeyB = s.kbuf
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

// wait blocks for s's in-flight request and completes it.
func (c *client) wait(s *slot, measured bool) error {
	res := s.req.Wait()
	s.inflight = false
	return c.complete(s, &res, measured)
}

// complete records the latency of s's finished request and tallies its
// outcome. Insert rejections that add no record are counted, not fatal.
func (c *client) complete(s *slot, res *service.Result, measured bool) error {
	if measured {
		c.hist.Record(time.Since(s.start).Nanoseconds())
	}
	if res.ValueB != nil {
		s.req.ValueB = res.ValueB // keep a Get's grown read buffer for reuse
	}
	ct := &c.counts
	if s.kind == workload.OpInsert {
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
	switch s.kind {
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
