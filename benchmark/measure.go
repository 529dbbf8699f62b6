package main

// measure.go runs one workload from set-up to epilogue and turns what it
// saw into the named metrics.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
)

// result is one run of one workload.
type result struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Provenance, not metrics.
	WallS           float64          `json:"wall_s"`
	MeasuredS       float64          `json:"measured_s"`
	Windows         int              `json:"windows"`
	OpsPerWindow    int              `json:"ops_per_window"`
	Preload         int              `json:"preload"`
	PoolBytes       uint64           `json:"pool_bytes"` // all pools together
	FinalMismatches int64            `json:"final_mismatches"`
	LostAckedOps    int64            `json:"lost_acked_ops"`
	Errors          map[string]int64 `json:"unexpected_errors,omitempty"`
	SetupS          []float64        `json:"setup_s_each"`
	WindowOpsS      []float64        `json:"window_ops_s"` // every window in plan order: split waves show here
	WindowP50NS     []float64        `json:"window_p50_ns"`
	WindowP99NS     []float64        `json:"window_p99_ns"`
	RestartOpenMS   []float64        `json:"restart_open_ms_each"`
	RestartFullMS   []float64        `json:"restart_full_ms_each"`
}

// epilogue is what the untimed tail of a workload measures.
type epilogue struct {
	finalMismatches, lostAcked       int64
	openMS, fullMS, openSnapMS       []float64
	snapshotMS                       float64
	dirMS, segMS, logMS, mirrorsMS   float64
	firstTouch                       histSummary
	cleanOpenMS, postRestartGetP99NS float64
}

func runWorkload(w *workload, cfg runConfig, hdr header, outDir string) (*result, error) {
	t00 := now()
	sz := w.sizes(cfg.seconds, cfg.short)

	// Set-up, several times over; the last one is measured.
	var in *instance
	var setupS []float64
	for i := 0; i < setupRepeats; i++ {
		if in != nil {
			in.discard()
		}
		runtime.GC()
		t0 := now()
		var err error
		if in, err = setup(w, cfg.seed, sz.preload, sz.warmOps, sz.poolSize, false); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, float64(now()-t0)/1e9)
	}
	eng := in.eng

	// Measured windows.
	tracers := make([]*tracer, numClients)
	for c := range tracers {
		tracers[c] = &tracer{client: uint64(c)}
	}
	var tl traceLog
	root := tl.newID() // the workload span
	var wins []windowResult
	modelOn := true
	in.flipReply = cfg.sabotage
	shape0, reg0 := eng.stats(), eng.registry()
	shape1, reg1 := shape0, reg0
	measureStart := now()
	var fullWallNS int64
	for i, kind := range plan(cfg.trace, w.driver == drvSvc) {
		if wantModel := kind != phNoModel; wantModel != modelOn {
			if modelOn { // leaving the full-model windows: close their registry window
				shape1, reg1 = eng.stats(), eng.registry()
			}
			eng.setModel(wantModel)
			modelOn = wantModel
		}
		traced := kind == phTraced || kind == phDirect
		wid := tl.newID()
		for c, cl := range in.clients {
			cl.tr = nil
			if traced {
				cl.tr = tracers[c]
				cl.tr.parent = tl.newID()
			}
		}
		res := in.window(sz.windowOps, kind)
		wins = append(wins, res)
		if traced {
			first, last := in.clients[0].startAt, in.clients[0].endAt
			for c, cl := range in.clients {
				first, last = min(first, cl.startAt), max(last, cl.endAt)
				tl.spans = append(tl.spans, span{Name: fmt.Sprintf("client %d", c), Start: cl.startAt, End: cl.endAt, ID: cl.tr.parent, Parent: wid})
			}
			tl.spans = append(tl.spans, span{Name: fmt.Sprintf("window %d (%s)", i, phaseNames[kind]), Start: first, End: last, ID: wid, Parent: root})
			tl.boundaries = append(tl.boundaries, boundary{Window: i, Phase: phaseNames[kind],
				PM: map[string]uint64{"read_lines": res.pm.readLines, "write_lines": res.pm.writeLines,
					"flushed_lines": res.pm.flushedLines, "fences": res.pm.fences, "fences_elided": res.pm.fencesElided},
				Registry: eng.registry().flat()})
		}
		if kind == phUntraced || kind == phTraced {
			fullWallNS += res.wallNS
			// Safety net for a box many times slower than the reference: stop
			// at a window boundary rather than run into the driver's 180 s
			// limit. It changes the op counts, so it sits far above what a
			// minute of stolen CPU does to a run (3–5× on the reference box).
			if float64(fullWallNS) > 8e9*float64(cfg.seconds) && !cfg.short {
				break
			}
		}
	}
	if modelOn && !cfg.trace {
		shape1, reg1 = eng.stats(), eng.registry()
	}
	measuredS := float64(now()-measureStart) / 1e9
	for _, cl := range in.clients {
		cl.tr = nil
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	endShape := eng.stats()
	var userBytes int64
	for _, cl := range in.clients {
		userBytes += cl.gen.m.userBytes
	}

	ep, err := in.epilogue(cfg, sz)
	if err != nil {
		return nil, fmt.Errorf("%s: epilogue: %w", w.name, err)
	}

	// Totals over the measured windows.
	res := &result{Workload: w.name, Trace: cfg.trace, Windows: len(wins), OpsPerWindow: sz.windowOps * numClients,
		Preload: sz.preload * numClients, PoolBytes: sz.poolSize * uint64(len(eng.pools)), SetupS: setupS, MeasuredS: measuredS,
		FinalMismatches: ep.finalMismatches, LostAckedOps: ep.lostAcked, Errors: map[string]int64{},
		RestartOpenMS: ep.openMS, RestartFullMS: ep.fullMS}
	var unexpectedErrors int64
	for _, cl := range in.clients {
		for k, n := range cl.errs {
			if n > 0 {
				res.Errors[errClassNames[k]] += n
				unexpectedErrors += n
			}
		}
	}
	for _, wr := range wins {
		res.Attempted += int64(wr.ops)
		res.Failed += wr.failed
	}
	res.Correct = res.Failed == 0 && ep.finalMismatches == 0 && ep.lostAcked == 0
	for _, wr := range wins {
		res.WindowOpsS = append(res.WindowOpsS, float64(int64(float64(wr.ops)/float64(wr.wallNS)*1e9)))
		res.WindowP50NS = append(res.WindowP50NS, float64(int64(wr.p50)))
		res.WindowP99NS = append(res.WindowP99NS, float64(int64(wr.p99)))
	}

	byKind := func(kinds ...phaseKind) (out []windowResult) {
		for _, wr := range wins {
			for _, k := range kinds {
				if wr.kind == k {
					out = append(out, wr)
				}
			}
		}
		return out
	}
	type totals struct {
		ops, wallNS, clientNS, genNS int64
		pm                           pmCounts
		kh                           [numKinds]hist
	}
	sum := func(ws []windowResult) (t totals) {
		for i := range ws {
			wr := &ws[i]
			t.ops += int64(wr.ops)
			t.wallNS += wr.wallNS
			t.clientNS += wr.clientNS
			t.genNS += wr.genNS
			t.pm = t.pm.add(wr.pm)
			for k := range t.kh {
				t.kh[k].merge(&wr.kh[k])
			}
		}
		return t
	}
	perOp := func(n uint64, t totals) float64 { return float64(n) / float64(max(t.ops, 1)) }
	clientMean := func(t totals) float64 { return float64(t.clientNS) / float64(max(t.ops, 1)) } // ns per op per client
	throughput := func(t totals) float64 { return float64(t.ops) / float64(max(t.wallNS, 1)) * 1e9 }
	column := func(ws []windowResult, f func(windowResult) float64) (xs []float64) {
		for _, wr := range ws {
			xs = append(xs, f(wr))
		}
		return xs
	}

	if !cfg.trace {
		m := newMetricSet(endToEnd)
		ws := byKind(phUntraced)
		t := sum(ws)
		m.set("setup_s", median(setupS))
		m.set("throughput_ops_s", throughput(t))
		m.set("op_p50_ns", median(column(ws, func(wr windowResult) float64 { return wr.p50 })))
		m.set("pm_read_bytes_per_op", 64*perOp(t.pm.readLines, t))
		m.set("pm_traffic_bytes_per_op", 64*perOp(t.pm.readLines+t.pm.writeLines, t))
		m.set("load_factor", mean(column(ws, func(wr windowResult) float64 { return wr.loadFactor })))
		m.set("pm_bytes_per_user_byte", float64(endShape.allocatedBytes)/float64(max(userBytes, 1)))
		m.set("heap_mb", float64(ms.HeapAlloc)/1e6)
		res.Metrics = m.values
		res.WallS = float64(now()-t00) / 1e9
		return res, nil
	}

	// Per-layer metrics from the traced run.
	m := newMetricSet(perLayer)
	full := byKind(phUntraced, phTraced)
	tu, tt, tn, tf := sum(byKind(phUntraced)), sum(byKind(phTraced)), sum(byKind(phNoModel)), sum(full)
	td := sum(byKind(phDirect)) // empty but on svc_pipelined
	// Per-kind latency of the spans around the table calls: the traced
	// windows, or for the service the direct windows (the traced windows'
	// spans there are around Submit and Wait, not around a table call).
	kinds := tt.kh
	if w.driver == drvSvc {
		kinds = td.kh
	}
	var submitH, waitH, rtt hist
	for _, t := range tracers {
		submitH.merge(&t.submit)
		waitH.merge(&t.wait)
	}
	for k := range tt.kh {
		rtt.merge(&tt.kh[k])
	}
	q := func(k uint8, name string, p float64) {
		if kinds[k].n > 0 {
			m.set(name, kinds[k].quantile(p))
		}
	}
	q(opGet, "core.get_p50_ns", 0.5)
	q(opGet, "core.get_p99_ns", 0.99)
	q(opGetMiss, "core.get_miss_p50_ns", 0.5)
	q(opInsert, "core.insert_p50_ns", 0.5)
	q(opInsert, "core.insert_p99_ns", 0.99)
	q(opInsert, "core.insert_p999_ns", 0.999)
	q(opUpdate, "core.update_p50_ns", 0.5)
	q(opUpdate, "core.update_p99_ns", 0.99)
	q(opDelete, "core.delete_p50_ns", 0.5)
	q(opDelete, "core.delete_p99_ns", 0.99)

	cpu, tracedMean := clientMean(tn), clientMean(tt)
	m.set("core.cpu_ns_per_op", cpu)
	m.set("pmem.device_ns_per_op", tracedMean-cpu)
	m.set("pmem.device_share", (tracedMean-cpu)/tracedMean)
	rates := column(full, func(wr windowResult) float64 { return float64(wr.ops) / float64(wr.wallNS) * 1e9 })
	m.set("core.window_ops_s_min", slices.Min(rates))
	m.set("core.window_ops_s_median", median(rates))

	splits := shape1.splits - shape0.splits
	m.set("core.splits", float64(splits))
	if splits > 0 {
		m.set("core.split_stall_mean_ns", float64(shape1.splitStallNS-shape0.splitStallNS)/float64(splits))
		m.set("core.split_migrate_p50_ns", float64(reg1.tableHist(reg0, "split.migrate_ns").p50))
	}
	m.set("core.split_assists", float64(shape1.splitAssists-shape0.splitAssists))
	lfs := column(full, func(wr windowResult) float64 { return wr.loadFactor })
	m.set("core.load_factor_min", slices.Min(lfs))
	m.set("core.load_factor_max", slices.Max(lfs))
	m.set("core.stash_share", float64(endShape.stashRecords)/float64(max(endShape.count, 1)))
	m.set("core.dircache_hit_rate", ratio(shape1.dirCacheHits-shape0.dirCacheHits, shape1.dirCacheMisses-shape0.dirCacheMisses))
	m.set("core.dircache_bytes", float64(endShape.dirCacheBytes))
	m.set("core.segfilter_hit_rate", ratio(shape1.segHits-shape0.segHits,
		shape1.segMisses-shape0.segMisses+shape1.segBypass-shape0.segBypass))
	m.set("core.segfilter_bytes", float64(endShape.segFilterBytes))
	m.set("core.segfilter_heals", float64(shape1.segHeals-shape0.segHeals))
	m.set("core.segfilter_bypass", float64(shape1.segBypass-shape0.segBypass))
	m.set("core.dram_bytes_per_record", float64(endShape.dirCacheBytes+endShape.segFilterBytes)/float64(max(endShape.count, 1)))
	// A restart is the same work every repeat and interference only adds to
	// it, so the fastest repeat is the steady figure: across seeds it spreads
	// a third to a half as much as the median (README "Noise").
	m.set("core.restart_full_ms", slices.Min(ep.fullMS))
	m.set("core.restart_open_ms", slices.Min(ep.openMS))
	m.set("core.restart_dir_ms", ep.dirMS)
	m.set("core.restart_segments_ms", ep.segMS)
	m.set("core.restart_log_ms", ep.logMS)
	m.set("core.restart_mirrors_ms", ep.mirrorsMS)
	m.set("core.restart_clean_open_ms", ep.cleanOpenMS)
	m.set("core.first_touch_p99_ns", float64(ep.firstTouch.p99))
	m.set("core.post_restart_get_p99_ns", ep.postRestartGetP99NS)
	m.set("core.unexpected_errors", float64(unexpectedErrors))

	m.set("pmem.read_bytes_per_op", 64*perOp(tf.pm.readLines, tf))
	m.set("pmem.write_bytes_per_op", 64*perOp(tf.pm.writeLines, tf))
	m.set("pmem.flushed_bytes_per_op", 64*perOp(tf.pm.flushedLines, tf))
	m.set("pmem.fences_per_op", perOp(tf.pm.fences, tf))
	m.set("pmem.fences_elided_per_op", perOp(tf.pm.fencesElided, tf))
	m.set("pmem.allocated_bytes", float64(endShape.allocatedBytes))
	m.set("pmem.snapshot_ms", ep.snapshotMS)
	m.set("pmem.open_snapshot_ms", median(ep.openSnapMS))

	m.set("varlog.live_bytes", float64(endShape.logLive))
	m.set("varlog.free_bytes", float64(endShape.logFree))
	m.set("varlog.chunk_bytes", float64(endShape.logChunk))
	if w.driver == drvVar {
		m.set("varlog.free_hit_rate", ratio(shape1.logFreeHits-shape0.logFreeHits, shape1.logFreeMisses-shape0.logFreeMisses))
		m.set("varlog.space_amp", float64(endShape.logChunk)/float64(max(userBytes, 1)))
	}

	retired := shape1.epochRetired - shape0.epochRetired
	m.set("epoch.retired_per_op", perOp(retired, tf))
	m.set("epoch.reclaimed_share", 1)
	if retired > 0 {
		m.set("epoch.reclaimed_share", float64(shape1.epochReclaimed-shape0.epochReclaimed)/float64(retired))
		m.set("epoch.reclaim_lag_p99_ns", float64(reg1.tableHist(reg0, "epoch.reclaim_lag_ns").p99))
	}
	m.set("epoch.pending_end", float64(endShape.epochPending))

	if w.driver == drvSvc {
		m.set("service.submit_mean_ns", submitH.mean())
		m.set("service.wait_mean_ns", waitH.mean())
		m.set("service.rtt_p999_ns", rtt.quantile(0.999))
		batch, imb := reg1.frontendWindow(reg0)
		m.set("service.batch_mean", batch)
		m.set("service.shard_imbalance", imb)
		m.set("service.fences_per_op", perOp(tf.pm.fences, tf))
		m.set("service.fences_elided_per_op", perOp(tf.pm.fencesElided, tf))
		m.set("service.overhead_ns_per_op", tracedMean-clientMean(td))
		m.set("service.error_replies", float64(unexpectedErrors))
	}

	for name, v := range cfg.probes {
		if name != "service.route_ns" || w.driver == drvSvc {
			m.set(name, v)
		}
	}

	all := sum(wins)
	m.set("bench.op_p99_ns", median(column(byKind(phUntraced), func(wr windowResult) float64 { return wr.p99 })))
	m.set("bench.trace_overhead_pct", 100*(throughput(tu)-throughput(tt))/throughput(tu))
	m.set("bench.generator_ns_per_op", float64(all.genNS)/float64(max(all.ops, 1)))
	m.set("bench.measured_wall_s", float64(all.wallNS)/1e9)
	m.set("bench.failed_ops_share", float64(res.Failed)/float64(max(res.Attempted, 1)))
	m.set("bench.final_mismatches", float64(ep.finalMismatches))
	m.set("bench.lost_acked_ops", float64(ep.lostAcked))
	res.Metrics = m.values

	hists := map[string]*hist{"submit": &submitH, "wait": &waitH}
	for k := range kinds {
		hists[kindNames[k]] = &kinds[k]
	}
	tl.spans = append(tl.spans, span{Name: "workload " + w.name, Start: measureStart, End: measureStart + int64(measuredS*1e9), ID: root})
	for _, cl := range in.clients {
		cl.tr = tracers[cl.id]
	}
	if err := tl.write(filepath.Join(outDir, "trace_"+w.name+".json"), hdr, w, hists, in.clients); err != nil {
		return nil, fmt.Errorf("%s: write trace: %w", w.name, err)
	}
	res.WallS = float64(now()-t00) / 1e9
	return res, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// ratio is good/(good+bad), 1 when nothing happened.
func ratio(good, bad uint64) float64 {
	if good+bad == 0 {
		return 1
	}
	return float64(good) / float64(good+bad)
}

// sweep reads back every live key of every client's model and a sample of
// deleted keys, and compares Count with the models' size. It returns the
// number of keys wrong, missing or extra.
func sweep(e *engine, clients []*client) (mismatches int64) {
	bad := make([]int64, len(clients))
	forEachClient(clients, func(c *client) {
		m := c.gen.m
		var kbuf, want, got []byte
		check := func(id uint64, ver uint32, live bool) {
			key := m.key(id)
			seed := valueSeed(key, ver)
			if m.varLen {
				kbuf = appendVarKey(kbuf[:0], key)
				var found bool
				got, found = e.tables[0].getB(got[:0], kbuf)
				want = appendStream(want[:0], seed, varValLen(seed))
				if found != live || (live && !bytes.Equal(got, want)) {
					bad[c.id]++
				}
				return
			}
			if v, found := e.tableFor(key).get(key); found != live || (live && v != seed) {
				bad[c.id]++
			}
		}
		for j, id := range m.ids {
			check(id, m.ver[j], true)
		}
		for _, id := range m.dead[:min(m.deadN, deadSample)] {
			check(id, 0, false)
		}
	})
	var live int64
	for i, c := range clients {
		mismatches += bad[i]
		live += int64(len(c.gen.m.ids))
	}
	d := e.count() - live
	return mismatches + max(d, -d)
}

// epilogue is the same untimed tail on every workload: the final sweep, the
// restarts from a crash-path image, and the durability replay.
func (in *instance) epilogue(cfg runConfig, sz sizes) (*epilogue, error) {
	ep := &epilogue{}
	eng := in.eng
	eng.setModel(false)

	// (1) Final sweep of the measured table.
	ep.finalMismatches = sweep(eng, in.clients)

	// (2) Restart: snapshot while open (crash-path image), then Open and
	// Open→RecoverAll, repeated; the image copy is outside the timed span.
	t0 := now()
	imgs := eng.snapshot()
	ep.snapshotMS = float64(now()-t0) / 1e6
	repeats := 1 // the untraced run restarts to verify; the traced run also times
	if cfg.trace {
		repeats = restartRepeats
	}
	for r := 0; r < repeats; r++ {
		runtime.GC()
		ro, err := eng.reopen(imgs)
		if err != nil {
			return nil, err
		}
		t1 := now()
		ro.recoverAll()
		fullNS := ro.openNS + now() - t1
		ep.openMS = append(ep.openMS, float64(ro.openNS)/1e6)
		ep.fullMS = append(ep.fullMS, float64(fullNS)/1e6)
		ep.openSnapMS = append(ep.openSnapMS, float64(ro.openSnapshotNS)/1e6)
		if r == 0 {
			ep.finalMismatches += sweep(ro.engine, in.clients)
			st := ro.stats()
			ep.dirMS, ep.segMS = float64(st.recDirNS)/1e6, float64(st.recSegNS)/1e6
			ep.logMS, ep.mirrorsMS = float64(st.recLogNS)/1e6, float64(st.recMirrorsNS)/1e6
			ep.firstTouch = ro.firstTouch()
		}
	}

	if cfg.trace {
		// First Gets after a crash-path Open, while recovery is still lazy:
		// work moved from Open into first touch shows here.
		runtime.GC()
		ro, err := eng.reopen(imgs)
		if err != nil {
			return nil, err
		}
		ep.postRestartGetP99NS = postRestartGets(ro.engine, in.clients[0])
		ro.recoverAll() // ends the background recovery driver

		// Clean restart: Close persists the clean marker; reopen that image.
		eng.close()
		clean := eng.snapshot()
		runtime.GC()
		rc, err := eng.reopen(clean)
		if err != nil {
			return nil, err
		}
		ep.cleanOpenMS = float64(rc.openNS) / 1e6
		ep.finalMismatches += sweep(rc.engine, in.clients)
	}
	imgs = nil
	eng.closeFrontend()
	runtime.GC()

	// (3) Durability replay: the same seeded stream at a tenth of the
	// keyspace on crash-tracking pools, clients quiesced, every unflushed
	// line dropped by Pool.Crash, reopened, every acknowledged op checked.
	rin, err := setup(in.w, cfg.seed, sz.replayPreload, 0, sz.replayPoolSize, true)
	if err != nil {
		return nil, fmt.Errorf("replay set-up: %w", err)
	}
	wr := rin.window(sz.replayOps, phUntraced)
	rin.eng.closeFrontend()
	rin.eng.crash()
	if cfg.sabotage {
		corruptOneRecord(rin)
	}
	re, err := rin.eng.reopenInPlace()
	if err != nil {
		return nil, fmt.Errorf("replay reopen: %w", err)
	}
	ep.lostAcked = sweep(re, rin.clients) + wr.failed
	return ep, nil
}

// postRestartGets times the first Gets against a just-opened engine and
// returns their p99.
func postRestartGets(e *engine, c *client) float64 {
	m := c.gen.m
	var h hist
	var kbuf, got []byte
	n := min(postRestartOps, len(m.ids))
	t := now()
	for _, id := range m.ids[:n] {
		key := m.key(id)
		if m.varLen {
			kbuf = appendVarKey(kbuf[:0], key)
			got, _ = e.tables[0].getB(got[:0], kbuf)
		} else {
			e.tableFor(key).get(key)
		}
		t2 := now()
		h.add(t2 - t)
		t = t2
	}
	return h.quantile(0.99)
}

// corruptOneRecord is the self-test's post-crash fault: it finds client 0's
// first live u64 record in the arena (key word, then value word) and flips
// one bit of the value, so the durability check must report a lost op.
func corruptOneRecord(rin *instance) {
	m := rin.clients[0].gen.m
	key := m.key(m.ids[0])
	var pat [8]byte
	binary.LittleEndian.PutUint64(pat[:], key)
	for i := range rin.eng.pools {
		b := rin.eng.arena(i)
		if at := bytes.Index(b, pat[:]); at >= 0 && at+8 < len(b) {
			b[at+8] ^= 1
			return
		}
	}
}
