package main

// trace.go records spans around the calls the benchmark makes into a layer.
// This PR may not instrument the program, so every span starts and ends in
// the benchmark's own loops: workload → window → client → op, and for
// svc_pipelined op → submit / wait. Every span feeds a per-name histogram;
// one op in sampleEvery also keeps its raw spans, in memory, written to
// trace_<workload>.json when the workload ends.

import (
	"encoding/json"
	"os"
)

const sampleEvery = 64

// span is one traced interval. Spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
}

// tracer is one client's span recorder. Only its client touches it.
type tracer struct {
	client       uint64
	submit, wait hist // svc_pipelined child spans
	spans        []span
	parent       uint64 // the client span of the current window
	seq, ids     uint64
}

func (t *tracer) newID() uint64 {
	t.ids++
	return (t.client+1)<<48 | t.ids
}

// op records one table-call span.
func (t *tracer) op(kind uint8, start, end int64) {
	t.seq++
	if t.seq%sampleEvery == 0 {
		t.spans = append(t.spans, span{kindNames[kind], start, end, t.newID(), t.parent, t.client<<48 | t.seq})
	}
}

// svcOp records one request's span and its submit and wait children.
func (t *tracer) svcOp(kind uint8, s *slot, end int64) {
	t.submit.add(s.submitEnd - s.start)
	t.wait.add(end - s.waitT)
	t.seq++
	if t.seq%sampleEvery == 0 {
		id, req := t.newID(), t.client<<48|t.seq
		t.spans = append(t.spans,
			span{kindNames[kind], s.start, end, id, t.parent, req},
			span{"submit", s.start, s.submitEnd, t.newID(), id, req},
			span{"wait", s.waitT, end, t.newID(), id, req})
	}
}

// boundary is what the benchmark reads at a traced window's end: PM traffic
// of the window and the cumulative meters of every registry.
type boundary struct {
	Window   int                `json:"window"`
	Phase    string             `json:"phase"`
	PM       map[string]uint64  `json:"pm_window"`
	Registry map[string]float64 `json:"registry"`
}

// traceLog is a workload's trace: the structural spans (workload, windows,
// clients), the boundaries, and the span ids handed out so far. The clients'
// sampled op spans join it when it is written.
type traceLog struct {
	spans      []span
	boundaries []boundary
	ids        uint64
}

func (l *traceLog) newID() uint64 {
	l.ids++
	return l.ids
}

type histJSON struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_ns"`
	P50   float64 `json:"p50_ns"`
	P99   float64 `json:"p99_ns"`
	P999  float64 `json:"p999_ns"`
}

func summarize(h *hist) histJSON {
	return histJSON{h.n, h.mean(), h.quantile(0.5), h.quantile(0.99), h.quantile(0.999)}
}

// write dumps the trace as JSON.
func (l *traceLog) write(path string, hdr header, w *workload, hists map[string]*hist, clients []*client) error {
	spans := l.spans
	for _, c := range clients {
		if c.tr != nil {
			spans = append(spans, c.tr.spans...)
		}
	}
	hs := map[string]histJSON{}
	for name, h := range hists {
		if h.n > 0 {
			hs[name] = summarize(h)
		}
	}
	out := struct {
		Header      header              `json:"header"`
		Workload    string              `json:"workload"`
		SampleEvery int                 `json:"op_span_sample_every"`
		Histograms  map[string]histJSON `json:"span_histograms"`
		Boundaries  []boundary          `json:"boundaries"`
		Spans       []span              `json:"spans"`
	}{hdr, w.name, sampleEvery, hs, l.boundaries, spans}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
