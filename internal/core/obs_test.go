package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"dash/internal/obs"
	"dash/internal/pmem"
)

// TestTraceSplitLifecycle drives a seeded insert run past several splits and
// reconstructs at least one complete lifecycle from the flight recorder:
// trigger → CAS → migrate → publish → sweep for the same source segment,
// with non-decreasing timestamps (the PR's acceptance criterion).
func TestTraceSplitLifecycle(t *testing.T) {
	tbl := newTestTable(t, 64<<20, Options{})
	for k := uint64(0); k < 20_000; k++ {
		if err := tbl.Insert(k, k); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	if tbl.Stats().Splits == 0 {
		t.Fatal("run produced no splits; grow the insert count")
	}

	ev := tbl.TraceSnapshot()
	for i := 1; i < len(ev); i++ {
		if ev[i].TS < ev[i-1].TS {
			t.Fatalf("trace not time-ordered at %d: %v after %v", i, ev[i], ev[i-1])
		}
	}

	// Walk the ordered trace advancing a per-segment stage machine; a
	// segment reaching stage 5 saw the full lifecycle in order. (The control
	// lane holds thousands of slots, so none of these rare events wrapped.)
	want := []obs.EventType{
		obs.EvSplitTrigger, obs.EvSplitCAS, obs.EvSplitMigrate,
		obs.EvSplitPublish, obs.EvSplitSweep,
	}
	stage := map[uint64]int{}
	complete := 0
	for _, e := range ev {
		switch e.Type {
		case obs.EvSplitTrigger, obs.EvSplitCAS, obs.EvSplitMigrate,
			obs.EvSplitPublish, obs.EvSplitSweep:
			if want[stage[e.A]%len(want)] == e.Type {
				stage[e.A]++
				if stage[e.A]%len(want) == 0 {
					complete++
				}
			}
		}
	}
	if complete == 0 {
		t.Fatalf("no complete split lifecycle in %d events", len(ev))
	}

	// The registry saw the same splits the trace did.
	snap := tbl.Metrics().Snapshot()
	if snap.Counters["split.completed"] != tbl.Stats().Splits {
		t.Fatalf("registry split.completed = %d, stats = %d",
			snap.Counters["split.completed"], tbl.Stats().Splits)
	}
	if snap.Hists["split.migrate_ns"].Count != uint64(tbl.Stats().Splits) {
		t.Fatalf("split.migrate_ns count = %d, want %d",
			snap.Hists["split.migrate_ns"].Count, tbl.Stats().Splits)
	}
}

// TestSnapshotWindowsSplitsAndTraffic checks that a window of the registry
// reports what happened in it: splits, their stall time and PM lines written
// are counters, so Snapshot.Sub leaves the window's share of them, not the
// totals since Create.
func TestSnapshotWindowsSplitsAndTraffic(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{})
	insert := func(from, n uint64) {
		for k := from; k < from+n; k++ {
			if err := tbl.Insert(k*0x9e3779b97f4a7c15, k); err != nil {
				t.Fatalf("insert %d: %v", k, err)
			}
		}
	}
	insert(0, 3000)
	before := tbl.Metrics().Snapshot()
	pmBefore, splitsBefore := tbl.pool.Stats(), tbl.Stats().Splits
	if splitsBefore == 0 {
		t.Fatal("no split before the window; grow the first batch")
	}
	insert(3000, 3000)
	w := tbl.Metrics().Snapshot().Sub(before)
	splits := tbl.Stats().Splits - splitsBefore
	if splits == 0 {
		t.Fatal("no split inside the window; grow the second batch")
	}
	if got := w.Counters["split.completed"]; got != splits {
		t.Errorf("windowed split.completed = %d, want the window's %d splits", got, splits)
	}
	if got, hist := w.Counters["split.stall_ns"], w.Hists["split.publish_stall_ns"]; got == 0 || got != hist.Sum {
		t.Errorf("windowed split.stall_ns = %d, want the window's publish stalls, %d ns", got, hist.Sum)
	}
	if got, want := w.Counters["pmem.write_lines"], tbl.pool.Stats().Sub(pmBefore).WriteLines; got != want {
		t.Errorf("windowed pmem.write_lines = %d, want the window's %d", got, want)
	}
}

// TestObsConcurrentWithWriters runs Stats(), TraceSnapshot() and registry
// snapshots concurrently with a live insert/read/delete mix — the -race
// proof that observing the table never requires quiescing it.
func TestObsConcurrentWithWriters(t *testing.T) {
	tbl := newTestTable(t, 64<<20, Options{})

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := uint64(w) << 32; !stop.Load(); k++ {
				if err := tbl.Insert(k, k); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				tbl.Get(k)
				if k%4 == 0 {
					tbl.Delete(k)
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		st := tbl.Stats()
		if st.Count < 0 {
			t.Errorf("negative count %d", st.Count)
		}
		ev := tbl.TraceSnapshot()
		for j := 1; j < len(ev); j++ {
			if ev[j].TS < ev[j-1].TS {
				t.Errorf("trace not ordered under load")
			}
		}
		tbl.Metrics().Snapshot()
	}
	stop.Store(true)
	wg.Wait()

	// Quiesced, the registry and Stats() must agree: one source of truth.
	st, snap := tbl.Stats(), tbl.Metrics().Snapshot()
	if snap.Counters["dircache.hits"] != st.DirCacheHits {
		t.Fatalf("dircache.hits: registry %d, stats %d", snap.Counters["dircache.hits"], st.DirCacheHits)
	}
	if snap.Counters["epoch.retired"] != st.EpochRetired {
		t.Fatalf("epoch.retired: registry %d, stats %d", snap.Counters["epoch.retired"], st.EpochRetired)
	}
	if uint64(snap.Gauges["table.count"]) != uint64(st.Count) {
		t.Fatalf("table.count: registry %d, stats %d", snap.Gauges["table.count"], st.Count)
	}
}

// TestReadPathTraceTags checks EvGet events carry the path that served them:
// mirror hits for present keys, DRAM-vouched negatives for absent ones.
func TestReadPathTraceTags(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{})
	tbl.opSampleMask = 0 // record every op
	for k := uint64(0); k < 100; k++ {
		if err := tbl.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 100; k++ {
		if _, ok := tbl.Get(k); !ok {
			t.Fatalf("key %d missing", k)
		}
		tbl.Get(k + 1<<40) // absent
	}
	var hit, neg int
	for _, e := range tbl.TraceSnapshot() {
		if e.Type != obs.EvGet {
			continue
		}
		switch e.Tag {
		case obs.PathMirrorHit:
			hit++
		case obs.PathMirrorNeg:
			neg++
		}
	}
	if hit < 100 || neg < 100 {
		t.Fatalf("EvGet tags: %d mirror hits, %d mirror negatives; want >= 100 each", hit, neg)
	}
}

// TestRecoveryPhaseTimings reopens a durable image and checks the recovery
// phases are timed, exposed through the registry, Stats(), and the trace.
func TestRecoveryPhaseTimings(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{})
	for k := uint64(0); k < 5000; k++ {
		if err := tbl.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Metrics().Snapshot().Counters["recovery.total_ns"] != 0 {
		t.Fatal("freshly created table reports recovery time")
	}

	pool, err := pmem.OpenSnapshot(tbl.pool.Snapshot(), pmem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt := openTestTable(t, pool)
	defer rt.Close()
	if rt.Count() != tbl.Count() {
		t.Fatalf("reopened count %d, want %d", rt.Count(), tbl.Count())
	}

	st, c := rt.Stats(), rt.Metrics().Snapshot().Counters
	total := c["recovery.total_ns"]
	if total == 0 {
		t.Fatal("recovery total not recorded")
	}
	phases := c["recovery.directory_ns"] + c["recovery.segments_ns"] + c["recovery.log_ns"] + c["recovery.mirrors_ns"]
	if phases == 0 || phases > total {
		t.Fatalf("phase sum %d vs total %d", phases, total)
	}
	if statsSum := st.RecoveryDirNS + st.RecoverySegmentsNS + st.RecoveryLogNS + st.RecoveryMirrorsNS; uint64(statsSum) != phases {
		t.Fatalf("Stats phase sum %d, registry %d", statsSum, phases)
	}

	// The reopened table's trace starts with the four recovery phases.
	seen := map[uint8]bool{}
	for _, e := range rt.TraceSnapshot() {
		if e.Type == obs.EvRecovery {
			seen[e.Tag] = true
		}
	}
	for _, tag := range []uint8{obs.PhaseDirectory, obs.PhaseSegments, obs.PhaseLog, obs.PhaseMirrors} {
		if !seen[tag] {
			t.Fatalf("recovery phase %s missing from trace", obs.TagName(tag))
		}
	}
}

// TestMutatorOutcomeTags checks insert/update/delete completions carry their
// outcome tags.
func TestMutatorOutcomeTags(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{})
	tbl.opSampleMask = 0 // record every op
	if err := tbl.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(1, 2); err != ErrKeyExists {
		t.Fatalf("dup insert: %v", err)
	}
	if ok, _ := tbl.Update(2, 9); ok {
		t.Fatal("update of absent key succeeded")
	}
	if tbl.Delete(3) {
		t.Fatal("delete of absent key succeeded")
	}
	want := map[obs.EventType]uint8{
		obs.EvUpdate: obs.OutcomeMissing,
		obs.EvDelete: obs.OutcomeMissing,
	}
	var dup bool
	for _, e := range tbl.TraceSnapshot() {
		if e.Type == obs.EvInsert && e.Tag == obs.OutcomeExists {
			dup = true
		}
		if tag, ok := want[e.Type]; ok && e.Tag == tag {
			delete(want, e.Type)
		}
	}
	if !dup || len(want) != 0 {
		t.Fatalf("missing outcome tags: dup=%v remaining=%v", dup, want)
	}
}

// TestOpLaneSampling pins what the op lane holds at the default period: about
// one op in opSamplePeriod, timed; plus every op whose outcome a post-mortem
// needs, sampled or not, stamped with duration 0. (That the control lane is
// not sampled is TestTraceSplitLifecycle's business.)
func TestOpLaneSampling(t *testing.T) {
	tbl := newTestTable(t, 64<<20, Options{})
	sampled := func(k uint64) bool { return (tbl.probeU64(k).parts.Hash>>32)&tbl.opSampleMask == 0 }
	count := func(tb *Table, ty obs.EventType, tag uint8, unsampledOnly bool) (n int) {
		for _, e := range tb.TraceSnapshot() {
			if e.Type == ty && e.Tag == tag && !(unsampledOnly && e.B != 0) {
				n++
			}
		}
		return n
	}

	const preload, gets = 10_000, 64_000
	for k := uint64(0); k < preload; k++ {
		if err := tbl.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	want := 0
	for k := uint64(0); k < gets; k++ {
		tbl.Get(k)
		if sampled(k) {
			want++
		}
	}
	got := count(tbl, obs.EvGet, obs.PathMirrorHit, false) + count(tbl, obs.EvGet, obs.PathMirrorNeg, false)
	if got != want {
		t.Errorf("%d Gets left %d EvGet events, %d keys are in the sample", gets, got, want)
	}
	if lo, hi := gets/opSamplePeriod*3/4, gets/opSamplePeriod*5/4; got < lo || got > hi {
		t.Errorf("%d Gets left %d EvGet events, want %d..%d (1 in %d)", gets, got, lo, hi, opSamplePeriod)
	}

	// An insert that fails for lack of space is always recorded.
	small := newTestTable(t, 96<<10, Options{})
	var k uint64
	for ; small.Insert(k, k) == nil; k++ {
	}
	failed := 1
	for ; failed < 20; k++ {
		if sampled(k) {
			continue
		}
		if err := small.Insert(k, k); err == nil {
			continue
		} else if err != ErrPoolFull {
			t.Fatalf("insert %d into a full pool: %v", k, err)
		}
		failed++
	}
	if n := count(small, obs.EvInsert, obs.OutcomeErr, false); n != failed {
		t.Errorf("%d failed inserts left %d err events", failed, n)
	}
	if n := count(small, obs.EvInsert, obs.OutcomeErr, true); n < failed-1 {
		t.Errorf("%d unsampled failed inserts left %d zero-duration events", failed-1, n)
	}
}
