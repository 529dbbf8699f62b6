package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dash/internal/pmem"
)

// Crash-point fuzzing: replay one seeded op history and simulate power loss
// at every Kth flush boundary — the exact set of points where a real machine
// can lose a cacheline — then reopen, lazily touch every segment through the
// public read path, and require state equivalence against an oracle map.
//
// The acceptance contract at each crash point — verifyCrashPoint, the one
// reopen oracle of the crash suites (the single-writer matrix of
// crash_test.go and varcrash_test.go hands it a replayed prefix with the
// crashed op in flight, the writers-in-flight test below one run per writer):
//   - every acknowledged op is fully visible (exact values, exact absences);
//   - the single in-flight op is atomic: the key reads as its old state or
//     its new state, never anything else (no torn values, no ghosts);
//   - Count, re-derived from bucket popcounts at first touch, matches the
//     observed live set (duplicates or leaked slots would shift it);
//   - the recovered table passes Verify — among its invariants, after the
//     background sweep, the record log's live set equals the set of blobs
//     the slots reference (no leak, no double-free) — and keeps passing it
//     after writes that split a recovered segment (writesAfterReopen);
//   - the stash counts recovery recomputed are exact (Verify) and let the
//     probe find every stash record (requireStashFound).
//
// Flush boundaries within one prefix of the history are deterministic (the
// table is single-threaded here and owns every flush), so "the Kth flush"
// names a reproducible machine state. The sweep samples the history's
// flushes; the single-writer matrix crashes chosen ops at every one.

// fuzzOp is one step of a history: kind 'i'/'d'/'u', on the inline u64 path
// or (varK) the indirect variable-length path; or 'c', an UpdateB of a u64
// key to the long value fuzzVarVal(val), which converts its record to an
// indirect one.
type fuzzOp struct {
	kind byte
	varK bool
	id   uint64
	val  uint64
}

func fuzzVarKey(id uint64) []byte {
	return []byte(fmt.Sprintf("crash-fuzz-key-%05d%s", id, "xyz"[:id%3]))
}

// fuzzVarVal pads values to 16..~96 bytes so blobs span one to several
// cachelines — crash points inside multi-line appends are the interesting
// ones.
func fuzzVarVal(val uint64) []byte {
	return []byte(fmt.Sprintf("val-%d-%s", val, strings.Repeat("v", int(val%80))))
}

// genCrashHistory builds a deterministic, self-consistent op sequence: it
// simulates presence while generating, so every insert targets an absent key
// and every delete/update a present one. Replaying a prefix therefore never
// hits ErrKeyExists or a missing-key failure.
func genCrashHistory(seed int64, n int) []fuzzOp {
	rng := rand.New(rand.NewSource(seed))
	presU := map[uint64]bool{}
	presV := map[uint64]bool{}
	ops := make([]fuzzOp, 0, n)
	for len(ops) < n {
		varK := rng.Intn(4) == 0
		pres, id := presU, uint64(rng.Intn(1600))
		if varK {
			pres, id = presV, uint64(rng.Intn(250))
		}
		switch {
		case !pres[id]:
			ops = append(ops, fuzzOp{'i', varK, id, rng.Uint64()})
			pres[id] = true
		case rng.Intn(3) == 0:
			ops = append(ops, fuzzOp{'d', varK, id, 0})
			delete(pres, id)
		default:
			ops = append(ops, fuzzOp{'u', varK, id, rng.Uint64()})
		}
	}
	return ops
}

// oracleVal is what the oracle holds for op's key once op applied: the value
// Get returns, or for a variable-length key the id of its fuzzVarVal. A
// converted record's Get reads the first 8 bytes of its value.
func (op fuzzOp) oracleVal() uint64 {
	if op.kind == 'c' {
		return binary.LittleEndian.Uint64(fuzzVarVal(op.val))
	}
	return op.val
}

// crashOracle replays an acknowledged prefix into plain maps.
func crashOracle(ops []fuzzOp) (mU, mV map[uint64]uint64) {
	mU, mV = map[uint64]uint64{}, map[uint64]uint64{}
	for _, op := range ops {
		m := mU
		if op.varK {
			m = mV
		}
		switch op.kind {
		case 'i', 'u', 'c':
			m[op.id] = op.oracleVal()
		case 'd':
			delete(m, op.id)
		}
	}
	return mU, mV
}

func applyCrashOp(tbl *Table, op fuzzOp) error {
	if op.varK {
		k := fuzzVarKey(op.id)
		switch op.kind {
		case 'i':
			return tbl.InsertB(k, fuzzVarVal(op.val))
		case 'd':
			if !tbl.DeleteB(k) {
				return fmt.Errorf("deleteB %q: not found", k)
			}
		case 'u':
			if ok, err := tbl.UpdateB(k, fuzzVarVal(op.val)); err != nil || !ok {
				return fmt.Errorf("updateB %q: %v %v", k, ok, err)
			}
		}
		return nil
	}
	switch op.kind {
	case 'i':
		return tbl.Insert(op.id, op.val)
	case 'd':
		if !tbl.Delete(op.id) {
			return fmt.Errorf("delete %d: not found", op.id)
		}
	case 'u':
		if ok, err := tbl.Update(op.id, op.val); err != nil || !ok {
			return fmt.Errorf("update %d: %v %v", op.id, ok, err)
		}
	case 'c':
		if ok, err := tbl.UpdateB(binary.LittleEndian.AppendUint64(nil, op.id), fuzzVarVal(op.val)); err != nil || !ok {
			return fmt.Errorf("converting update %d: %v %v", op.id, ok, err)
		}
	}
	return nil
}

// runToCrash replays ops against a fresh table, simulating power loss at the
// crashAt-th flush (crashAt <= 0 disables the crash and just counts). The
// hook panics at that flush and every later one, before the flushed line can
// reach media; the sentinel panic unwinds the in-flight op, and Crash() then
// reverts every line stored but not flushed — including stores issued by
// deferred cleanups on the unwound stack, which never reach media. Returns
// the pool (its durable image IS the crash state), the number of fully
// acknowledged ops, whether the crash fired, and the total flush count
// observed.
func runToCrash(t *testing.T, ops []fuzzOp, crashAt int) (pool *pmem.Pool, acked int, crashed bool, flushes int) {
	t.Helper()
	pool, err := pmem.NewPool(pmem.Options{Size: 4 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool.SetFlushHook(func(pmem.Addr, uint64) {
		if flushes++; crashAt > 0 && flushes >= crashAt {
			panic(crashNow{})
		}
	})
	crashed = crashes(func() {
		for i := range ops {
			if err := applyCrashOp(tbl, ops[i]); err != nil {
				t.Fatalf("op %d (%+v): %v", i, ops[i], err)
			}
			acked = i + 1
		}
	})
	pool.SetFlushHook(nil)
	if crashed {
		pool.Crash()
	}
	return pool, acked, crashed, flushes
}

// crashRun is one writer's history and how much of it was acknowledged when
// the power went: ops[:acked] returned, ops[acked] (if any) was in flight.
type crashRun struct {
	ops   []fuzzOp
	acked int
}

// verifyCrashPoint reopens a crashed pool and checks the full acceptance
// contract described at the top of the file, for every writer's history.
// The oracle probes double as the lazy first touches: every live key is read
// through the gated public path before RecoverAll forces the remainder.
// Returns the table, closed, for a test's own assertions on its meters.
func verifyCrashPoint(t *testing.T, pool *pmem.Pool, runs []crashRun, where string) *Table {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", where, fmt.Sprintf(format, args...))
	}
	tbl, err := Open(pool)
	if err != nil {
		fail("Open: %v", err)
	}
	expected := 0
	for w, r := range runs {
		expected += verifyCrashRun(t, tbl, r, fmt.Sprintf("%s, writer %d", where, w))
	}
	for k := uint64(1 << 50); k < 1<<50+16; k++ {
		if _, ok := tbl.Get(k); ok {
			fail("phantom key %d", k)
		}
	}

	// Force the rest of recovery (untouched segments + the log sweep), then
	// check the global invariants the per-key probes cannot see.
	tbl.RecoverAll()
	if got := tbl.Count(); got != int64(expected) {
		fail("Count = %d, want %d (duplicate or leaked slots)", got, expected)
	}
	if err := tbl.Verify(); err != nil {
		fail("after recovery: %v", err)
	}
	requireStashFound(t, tbl, where)
	writesAfterReopen(t, tbl, where)
	if err := tbl.Verify(); err != nil {
		fail("after writes on the recovered table: %v", err)
	}
	tbl.Close()
	return tbl
}

// verifyCrashRun checks one writer's keys on the reopened table — every
// acknowledged op exactly, the in-flight op old-or-new — and returns how
// many of its keys are live.
func verifyCrashRun(t *testing.T, tbl *Table, r crashRun, where string) int {
	t.Helper()
	var inFlight fuzzOp
	flying := r.acked < len(r.ops) // a history that completed has no op in flight
	if flying {
		inFlight = r.ops[r.acked]
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s (op %d %+v): %s", where, r.acked, inFlight, fmt.Sprintf(format, args...))
	}
	mU, mV := crashOracle(r.ops[:r.acked])
	for id, want := range mU {
		if flying && !inFlight.varK && id == inFlight.id {
			continue
		}
		if v, ok := tbl.Get(id); !ok || v != want {
			fail("acked key %d = %d,%v want %d", id, v, ok, want)
		}
	}
	for id, want := range mV {
		if flying && inFlight.varK && id == inFlight.id {
			continue
		}
		v, ok := tbl.GetB(fuzzVarKey(id))
		if !ok || !bytes.Equal(v, fuzzVarVal(want)) {
			fail("acked var key %d = %q,%v want %q", id, v, ok, fuzzVarVal(want))
		}
	}
	live := len(mU) + len(mV)
	if !flying {
		return live
	}

	// The in-flight op is allowed exactly two outcomes: its old state or its
	// new state.
	var (
		got       uint64
		gotB      []byte
		inPresent bool
		oldVal    uint64
	)
	if inFlight.varK {
		gotB, inPresent = tbl.GetB(fuzzVarKey(inFlight.id))
		oldVal = mV[inFlight.id]
	} else {
		got, inPresent = tbl.Get(inFlight.id)
		oldVal = mU[inFlight.id]
	}
	matches := func(val uint64) bool {
		if inFlight.varK {
			return bytes.Equal(gotB, fuzzVarVal(val))
		}
		return got == val
	}
	switch inFlight.kind {
	case 'i':
		if inPresent && !matches(inFlight.val) {
			fail("in-flight insert: torn value %d/%q", got, gotB)
		}
		if inPresent {
			live++
		}
	case 'd':
		if inPresent && !matches(oldVal) {
			fail("in-flight delete: torn value %d/%q", got, gotB)
		}
		if !inPresent {
			live--
		}
	case 'u', 'c':
		if !inPresent {
			fail("in-flight update dropped the key")
		}
		newVal := inFlight.oracleVal()
		if !matches(oldVal) && !matches(newVal) {
			fail("in-flight update: torn value %d/%q (old %d new %d)", got, gotB, oldVal, newVal)
		}
		// Get reads a converted record's first 8 bytes; the rest of its blob
		// must be whole too.
		if inFlight.kind == 'c' && matches(newVal) {
			want := fuzzVarVal(inFlight.val)
			if v, _ := tbl.GetB(binary.LittleEndian.AppendUint64(nil, inFlight.id)); !bytes.Equal(v, want) {
				fail("in-flight converting update: value %q, want %q", v, want)
			}
		}
	}
	return live
}

// TestCrashPointFuzz sweeps >= 200 evenly spaced crash points across the
// seeded history.
func TestCrashPointFuzz(t *testing.T) {
	withLazyGates(t)
	ops := genCrashHistory(8, slotsPerSegment+slotsPerSegment/2)

	// Dry run: count the history's flush boundaries and prove it completes.
	_, acked, crashed, total := runToCrash(t, ops, 0)
	if crashed || acked != len(ops) {
		t.Fatalf("dry run: crashed=%v acked=%d/%d", crashed, acked, len(ops))
	}
	if total < 400 {
		t.Fatalf("history produced only %d flush boundaries; too few to sweep", total)
	}

	const target = 200
	stride := total / target
	points := 0
	for crashAt := 1; crashAt <= total; crashAt += stride {
		pool, acked, crashed, _ := runToCrash(t, ops, crashAt)
		if !crashed {
			t.Fatalf("crash point %d never fired (total %d)", crashAt, total)
		}
		verifyCrashPoint(t, pool, []crashRun{{ops, acked}}, fmt.Sprintf("crash point %d", crashAt))
		points++
	}
	if points < target {
		t.Fatalf("swept only %d crash points, want >= %d", points, target)
	}
	t.Logf("swept %d crash points across %d flush boundaries (%d ops)", points, total, len(ops))
}

// Writers in flight: three goroutines replay their own seeded histories —
// over disjoint keys, u64 and variable-length mixed — against one table, and
// the power goes at the K-th flush issued by any of them. The image is the
// media as the K-th flush's hook finds it, taken before that flush copies a
// line: every flush after it waits in its hook until the image is taken, so
// nothing issued after the K-th reaches it. Writers are not unwound: a
// writer dying while it holds a bucket lock, a split or the log's mutex would
// leave another spinning on it before its next flush, so each runs on and
// stops at its next op boundary instead. A writer's acknowledged prefix is
// read at the crash point, before the image: an op that returned by then had
// all its flushes issued before the K-th and completed, so it must be in the
// image, and the one op it was running may land or not.

// crashWriters is the number of concurrent writers; writer w's keys are its
// history's ids shifted by w<<32, past every other writer's.
const crashWriters = 3

func writerHistories(seed int64, n int) [][]fuzzOp {
	hists := make([][]fuzzOp, crashWriters)
	for w := range hists {
		hists[w] = genCrashHistory(seed+int64(w), n)
		for i := range hists[w] {
			hists[w][i].id += uint64(w) << 32
		}
	}
	return hists
}

// runWritersToCrash replays hists concurrently against a fresh table and
// returns the image taken at the crashAt-th flush (nil: crashAt <= 0, or the
// run ended first), each writer's acknowledged prefix at that point, and the
// number of flushes the run issued.
func runWritersToCrash(t *testing.T, hists [][]fuzzOp, crashAt int64) (img []byte, runs []crashRun, flushes int64) {
	t.Helper()
	pool, err := pmem.NewPool(pmem.Options{Size: 4 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// started[w] is stored before writer w checks stop, and the hook stores
	// stop before it reads started: a writer whose next op the hook did not
	// see as started sees stop and never runs it. Writer w's op in flight is
	// ops[acked] only if started > acked; trimming ops to started says so.
	started := make([]atomic.Int64, len(hists))
	acked := make([]atomic.Int64, len(hists))
	var (
		count  atomic.Int64
		stop   atomic.Bool
		frozen = make(chan struct{})
	)
	pool.SetFlushHook(func(pmem.Addr, uint64) {
		switch n := count.Add(1); {
		case n == crashAt:
			stop.Store(true)
			for w := range hists {
				s := started[w].Load()
				runs = append(runs, crashRun{hists[w][:s], int(acked[w].Load())})
			}
			img = pool.Snapshot()
			close(frozen)
		case crashAt > 0 && n > crashAt:
			<-frozen
		}
	})
	var wg sync.WaitGroup
	for w, ops := range hists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, op := range ops {
				started[w].Store(int64(i + 1))
				if stop.Load() {
					return
				}
				if err := applyCrashOp(tbl, op); err != nil {
					t.Errorf("writer %d op %d (%+v): %v", w, i, op, err)
					return
				}
				acked[w].Store(int64(i + 1))
			}
		}()
	}
	wg.Wait()
	pool.SetFlushHook(nil)
	return img, runs, count.Load()
}

// TestCrashPointsWritersInFlight crashes the three-writer run at >= 100
// evenly spaced flushes and checks, per writer, the contract of
// TestCrashPointFuzz on the reopened image.
func TestCrashPointsWritersInFlight(t *testing.T) {
	withLazyGates(t)
	hists := writerHistories(21, 400)
	_, _, total := runWritersToCrash(t, hists, 0)
	if total < 2000 {
		t.Fatalf("the history flushed only %d times", total)
	}
	// Flush counts differ a little from run to run (who splits, who grows
	// the log); stop short of the end so every point fires.
	const target = 100
	stride := total * 9 / 10 / target
	points := 0
	for crashAt := stride; crashAt <= total*9/10; crashAt += stride {
		img, runs, _ := runWritersToCrash(t, hists, crashAt)
		if img == nil {
			t.Fatalf("crash point %d never fired (dry run: %d flushes)", crashAt, total)
		}
		pool, err := pmem.OpenSnapshot(img, pmem.Options{})
		if err != nil {
			t.Fatal(err)
		}
		verifyCrashPoint(t, pool, runs, fmt.Sprintf("crash point %d", crashAt))
		points++
	}
	if points < target {
		t.Fatalf("crashed at only %d points, want >= %d", points, target)
	}
	t.Logf("crashed at %d points across %d flushes of %d writers", points, total, crashWriters)
}
