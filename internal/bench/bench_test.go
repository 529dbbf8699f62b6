package bench

import (
	"testing"

	"dash/internal/workload"
)

// mixFor resolves a registered mix.
func mixFor(t *testing.T, name string) workload.Mix {
	t.Helper()
	m, ok := workload.MixByName(name)
	if !ok {
		t.Fatalf("mix %q not registered", name)
	}
	return m
}

// TestSmokeBalanced is the harness's own smoke benchmark: 2 goroutines, ~10k
// ops of the 50/50 insert/read mix, asserting throughput is nonzero, the
// latency histogram accounts for every measured op, and the table lost no
// operation versus the workers' tallies.
func TestSmokeBalanced(t *testing.T) {
	res, err := Run(Config{
		Threads:   2,
		Ops:       10_000,
		WarmupOps: 1_000,
		Keyspace:  4_096,
		Mix:       mixFor(t, "balanced"),
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MopsPerS <= 0 {
		t.Errorf("throughput = %f Mops/s, want > 0", res.MopsPerS)
	}
	if res.Hist.Count != 10_000 {
		t.Errorf("histogram holds %d observations, want 10000", res.Hist.Count)
	}
	c := res.Counts
	if got := c.InsertOK + c.ReadHit + c.ReadMiss; got != 11_000 {
		t.Errorf("tallied %d insert/read outcomes, want 11000 (warmup+measured)", got)
	}
	if c.InsertDup != 0 {
		t.Errorf("fresh-key inserts reported %d duplicates", c.InsertDup)
	}
	if c.ReadMiss != 0 {
		t.Errorf("positive reads missed %d times with no deletes in the mix", c.ReadMiss)
	}
	// Run already audits table count == preload + inserts − deletes; double
	// check the invariant from the outside.
	if want := int64(res.Counts.Preloaded) + c.InsertOK - c.DeleteOK; res.Count != want {
		t.Errorf("table count %d, want %d", res.Count, want)
	}
	if res.LoadFactor <= 0 || res.LoadFactor > 1 {
		t.Errorf("load factor %f out of range", res.LoadFactor)
	}
	// A u64 mix reads no PM line (a running table reads PM only for blob
	// payloads), so the meter's proof of life is the writes and flushes.
	if pm := res.Meters.Counters; pm["pmem.read_lines"] != 0 || pm["pmem.write_lines"] == 0 || pm["pmem.flushed_lines"] == 0 {
		t.Errorf("measured phase PM lines read %d, written %d, flushed %d, want writes and flushes and no read",
			pm["pmem.read_lines"], pm["pmem.write_lines"], pm["pmem.flushed_lines"])
	}
	if res.P50NS < 0 || res.P99NS < res.P50NS || res.MaxNS < res.P99NS {
		t.Errorf("latency quantiles inconsistent: p50=%d p99=%d max=%d", res.P50NS, res.P99NS, res.MaxNS)
	}
}

// TestSmokeDeleteHeavy exercises every op kind (inserts, reads, deletes) plus
// the lost-op audit when records leave the table.
func TestSmokeDeleteHeavy(t *testing.T) {
	res, err := Run(Config{
		Threads:  2,
		Ops:      8_000,
		Keyspace: 2_048,
		Theta:    0.9,
		Mix:      mixFor(t, "delete-heavy"),
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.DeleteOK == 0 {
		t.Error("delete-heavy mix deleted nothing")
	}
	if res.Hist.Count != 8_000 {
		t.Errorf("histogram holds %d observations, want 8000", res.Hist.Count)
	}
}

// TestSmokeNegativeReads checks the negative namespace really never hits.
func TestSmokeNegativeReads(t *testing.T) {
	res, err := Run(Config{
		Threads:  2,
		Ops:      4_000,
		Keyspace: 1_024,
		Mix:      mixFor(t, "read-neg"),
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.NegHit != 0 {
		t.Errorf("%d negative reads found a key", res.Counts.NegHit)
	}
	if res.Counts.NegMiss != 4_000 {
		t.Errorf("negative misses = %d, want 4000", res.Counts.NegMiss)
	}
}

// TestRunRejectsBadConfig covers the validation edges.
func TestRunRejectsBadConfig(t *testing.T) {
	mix := mixFor(t, "read")
	if _, err := Run(Config{Threads: 0, Ops: 10, Keyspace: 16, Mix: mix}); err == nil {
		t.Error("threads=0 accepted")
	}
	if _, err := Run(Config{Threads: 1, Ops: 0, Keyspace: 16, Mix: mix}); err == nil {
		t.Error("ops=0 accepted")
	}
	if _, err := Run(Config{Threads: 1, Ops: 10, Keyspace: 16, Mix: mix, Shards: -1}); err == nil {
		t.Error("shards=-1 accepted")
	}
	if _, err := Run(Config{Threads: 1, Ops: 10, Keyspace: 16, Mix: mix, Shards: 3}); err == nil {
		t.Error("shards=3 (not a power of two) accepted")
	}
}

// TestSmokeVarMixes drives the variable-length mixes end to end through
// the []byte API: preload via InsertB, reads that must all hit, updates
// that copy-on-write, and the record-log space accounting surfaced in the
// result.
func TestSmokeVarMixes(t *testing.T) {
	res, err := Run(Config{
		Threads:   2,
		Ops:       6_000,
		WarmupOps: 600,
		Keyspace:  2_048,
		Mix:       mixFor(t, "var-ycsb-b"),
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counts
	if c.ReadMiss != 0 {
		t.Errorf("positive var reads missed %d times", c.ReadMiss)
	}
	if c.UpdateOK == 0 {
		t.Error("var-ycsb-b performed no updates")
	}
	if c.UpdateNF != 0 {
		t.Errorf("%d var updates reported not-found", c.UpdateNF)
	}
	// Every preloaded record is a blob of at least 16 header bytes.
	if live := res.Meters.Gauges["varlog.live_bytes"]; live < 16*int64(res.Counts.Preloaded) {
		t.Errorf("var cell's record log holds %d live bytes for %d preloaded records", live, res.Counts.Preloaded)
	}

	ins, err := Run(Config{
		Threads:   2,
		Ops:       4_000,
		WarmupOps: 400,
		Keyspace:  1_024,
		Mix:       mixFor(t, "var-insert"),
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ins.Counts.InsertOK != 4_400 {
		t.Errorf("var inserts ok = %d, want 4400", ins.Counts.InsertOK)
	}
	if ins.Counts.InsertDup != 0 || ins.Counts.InsertTooLarge != 0 {
		t.Errorf("var inserts: dup=%d too_large=%d", ins.Counts.InsertDup, ins.Counts.InsertTooLarge)
	}
}
