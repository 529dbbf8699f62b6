package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"dash/internal/pmem"
)

// Crash-point fuzzing: replay one seeded op history and simulate power loss
// at every Kth flush boundary — the exact set of points where a real machine
// can lose a cacheline — then reopen, lazily touch every segment through the
// public read path, and require state equivalence against an oracle map.
//
// The acceptance contract at each crash point:
//   - every acknowledged op is fully visible (exact values, exact absences);
//   - the single in-flight op is atomic: the key reads as its old state or
//     its new state, never anything else (no torn values, no ghosts);
//   - Count, re-derived from bucket popcounts at first touch, matches the
//     observed live set (duplicates or leaked slots would shift it);
//   - after the background sweep, the record log's live set equals the set
//     of blobs the slots reference (no leak, no double-free).
//
// Flush boundaries within one prefix of the history are deterministic (the
// table is single-threaded here and owns every flush), so "the Kth flush"
// names a reproducible machine state.

// fuzzOp is one step of the seeded history: kind 'i'/'d'/'u', on the inline
// u64 path or (varK) the indirect variable-length path.
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

// crashOracle replays an acknowledged prefix into plain maps.
func crashOracle(ops []fuzzOp) (mU, mV map[uint64]uint64) {
	mU, mV = map[uint64]uint64{}, map[uint64]uint64{}
	for _, op := range ops {
		m := mU
		if op.varK {
			m = mV
		}
		switch op.kind {
		case 'i', 'u':
			m[op.id] = op.val
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
	}
	return nil
}

// runToCrash replays ops against a fresh table, simulating power loss at the
// crashAt-th flush (crashAt <= 0 disables the crash and just counts). The
// hook fires before the flushed line can reach media; the sentinel panic
// unwinds the in-flight op, and Crash() then reverts every line stored but
// not flushed — including stores issued by deferred cleanups on the unwound
// stack, which never flush. Returns the pool (its durable image IS the crash
// state), the number of fully acknowledged ops, whether the crash fired, and
// the total flush count observed.
func runToCrash(t *testing.T, ops []fuzzOp, crashAt int) (pool *pmem.Pool, acked int, crashed bool, flushes int) {
	t.Helper()
	pool, err := pmem.NewPool(pmem.Options{Size: 64 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool.SetFlushHook(func() {
		flushes++
		if flushes == crashAt {
			panic(crashNow{})
		}
	})
	crashed = func() (c bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(crashNow); !ok {
					panic(r)
				}
				c = true
			}
		}()
		for i := range ops {
			if err := applyCrashOp(tbl, ops[i]); err != nil {
				t.Fatalf("op %d (%+v): %v", i, ops[i], err)
			}
			acked = i + 1
		}
		return false
	}()
	pool.SetFlushHook(nil)
	if crashed {
		pool.Crash()
	}
	return pool, acked, crashed, flushes
}

// verifyCrashPoint reopens a crashed pool and checks the full acceptance
// contract described at the top of the file. The oracle probes double as the
// lazy first touches: every live key is read through the gated public path
// before RecoverAll forces the remainder.
func verifyCrashPoint(t *testing.T, pool *pmem.Pool, ops []fuzzOp, acked, crashAt int) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("crash point %d (op %d %+v): %s", crashAt, acked, ops[acked], fmt.Sprintf(format, args...))
	}
	mU, mV := crashOracle(ops[:acked])
	inFlight := ops[acked]

	tbl, err := Open(pool)
	if err != nil {
		fail("Open: %v", err)
	}
	for id, want := range mU {
		if !inFlight.varK && id == inFlight.id {
			continue
		}
		if v, ok := tbl.Get(id); !ok || v != want {
			fail("acked key %d = %d,%v want %d", id, v, ok, want)
		}
	}
	for id, want := range mV {
		if inFlight.varK && id == inFlight.id {
			continue
		}
		v, ok := tbl.GetB(fuzzVarKey(id))
		if !ok || !bytes.Equal(v, fuzzVarVal(want)) {
			fail("acked var key %d = %q,%v want %q", id, v, ok, fuzzVarVal(want))
		}
	}
	for k := uint64(1 << 50); k < 1<<50+16; k++ {
		if _, ok := tbl.Get(k); ok {
			fail("phantom key %d", k)
		}
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
	case 'd':
		if inPresent && !matches(oldVal) {
			fail("in-flight delete: torn value %d/%q", got, gotB)
		}
	case 'u':
		if !inPresent {
			fail("in-flight update dropped the key")
		}
		if !matches(oldVal) && !matches(inFlight.val) {
			fail("in-flight update: torn value %d/%q (old %d new %d)", got, gotB, oldVal, inFlight.val)
		}
	}

	// Force the rest of recovery (untouched segments + the log sweep), then
	// check the global invariants the per-key probes cannot see.
	tbl.RecoverAll()
	expected := len(mU) + len(mV)
	if inFlight.kind == 'i' && inPresent {
		expected++
	}
	if inFlight.kind == 'd' && !inPresent {
		expected--
	}
	if got := tbl.Count(); got != int64(expected) {
		fail("Count = %d, want %d (duplicate or leaked slots)", got, expected)
	}
	if err := tbl.verifyLogLive(); err != nil {
		fail("log live-set invariant: %v", err)
	}
	if bad := tbl.mirrorVerifyAll(); bad != 0 {
		fail("%d mirror buckets diverge from PM after recovery", bad)
	}
	mixedWritesAfterReopen(t, tbl)
	requireMirrorsExact(t, tbl)
	tbl.Close()
}

// TestCrashPointFuzz sweeps >= 200 evenly spaced crash points across the
// seeded history by default; DASH_CRASH_SWEEP=full crashes at every single
// flush boundary (slow — minutes, not for the default `go test` budget).
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
	if os.Getenv("DASH_CRASH_SWEEP") == "full" {
		stride = 1
	}
	points := 0
	for crashAt := 1; crashAt <= total; crashAt += stride {
		pool, acked, crashed, _ := runToCrash(t, ops, crashAt)
		if !crashed {
			t.Fatalf("crash point %d never fired (total %d)", crashAt, total)
		}
		verifyCrashPoint(t, pool, ops, acked, crashAt)
		points++
	}
	if points < target {
		t.Fatalf("swept only %d crash points, want >= %d", points, target)
	}
	t.Logf("swept %d crash points across %d flush boundaries (%d ops)", points, total, len(ops))
}
