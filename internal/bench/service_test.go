package bench

import (
	"runtime"
	"testing"

	"dash/internal/core"
)

// A service cell runs a mix end to end at a small scale — a uint64 mix, one
// that deletes and a variable-length one — passes its own lost-op audit,
// accounts for every op and record in its per-shard rows, and pays fences
// for its writes (every one of these mixes writes).
func TestServiceCellMixes(t *testing.T) {
	for _, name := range []string{"balanced", "delete-heavy", "var-ycsb-b"} {
		t.Run(name, func(t *testing.T) {
			res, err := Run(Config{
				Shards:    2,
				Threads:   2,
				Ops:       4000,
				WarmupOps: 400,
				Keyspace:  4096,
				Mix:       mixFor(t, name),
				Seed:      42,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != 4000 {
				t.Fatalf("Ops = %d, want 4000", res.Ops)
			}
			if res.Mix != name || res.Threads != 2 || res.Shards != 2 {
				t.Fatalf("result echoes %q threads %d shards %d", res.Mix, res.Threads, res.Shards)
			}
			if res.Hist.Count != 4000 {
				t.Fatalf("latency samples = %d, want 4000", res.Hist.Count)
			}
			if len(res.PerShard) != 2 {
				t.Fatalf("PerShard rows = %d, want 2", len(res.PerShard))
			}
			var shardOps uint64
			var shardCount int64
			for _, row := range res.PerShard {
				shardOps += row.Ops
				shardCount += row.Count
			}
			if shardOps != 4000 {
				t.Fatalf("per-shard ops sum to %d, want 4000", shardOps)
			}
			if shardCount != res.Count {
				t.Fatalf("per-shard counts sum to %d, aggregate count %d", shardCount, res.Count)
			}
			if res.FencesPerOp <= 0 {
				t.Fatal("no fences in the measured phase: writes were acknowledged without one")
			}
		})
	}
}

// A service row carries the engine's telemetry summed over its shards: the
// table-shape, DRAM-tier and split columns the old service harness left at
// zero. Global depth is the deepest shard's, load factor is total count over
// total slot capacity, and the per-shard splits sum to the row's.
func TestServiceRowCarriesTableTelemetry(t *testing.T) {
	var tables []*core.Table
	res, err := Run(Config{
		Shards:    2,
		Threads:   2,
		Ops:       10_000,
		WarmupOps: 1_000,
		Keyspace:  4_096,
		Mix:       mixFor(t, "balanced"),
		Seed:      42,
		OnTable:   func(tb *core.Table) { tables = append(tables, tb) },
	})
	if err != nil {
		t.Fatal(err)
	}
	c, g := res.Meters.Counters, res.Meters.Gauges
	if c["split.completed"] == 0 || c["segfilter.hits"] == 0 || c["dircache.hits"] == 0 {
		t.Errorf("splits %d, seg filter hits %d, dir cache hits %d: want all non-zero",
			c["split.completed"], c["segfilter.hits"], c["dircache.hits"])
	}
	if g["segfilter.bytes"] == 0 || res.AllocatedBytes == 0 {
		t.Errorf("DRAM/PM footprints not summed: segfilter %d, allocated %d", g["segfilter.bytes"], res.AllocatedBytes)
	}
	var splits uint64
	for _, row := range res.PerShard {
		splits += row.Splits
	}
	if splits != c["split.completed"] {
		t.Errorf("per-shard splits sum to %d, aggregate %d", splits, c["split.completed"])
	}
	// The shards are closed, not gone: their shape is still there to walk.
	var depth uint8
	var count, capacity int64
	for _, tb := range tables {
		st := tb.Stats()
		depth = max(depth, st.GlobalDepth)
		count += st.Count
		capacity += st.SlotCapacity
	}
	if len(tables) != 2 || res.GlobalDepth != depth {
		t.Errorf("global depth %d over %d tables, want the deepest shard's %d", res.GlobalDepth, len(tables), depth)
	}
	if want := float64(count) / float64(capacity); res.Count != count || res.LoadFactor != want || want <= 0 || want > 1 {
		t.Errorf("count %d, load factor %f, want %d and count/capacity = %f", res.Count, res.LoadFactor, count, want)
	}
}

// MeasureRecovery on a service cell reopens every shard through
// service.Open; OnTable sees every table the cell builds. The mix is
// variable-length, so both shards' record logs are swept on the way back.
func TestServiceCellRecoveryAndOnTable(t *testing.T) {
	var tables []*core.Table
	res, err := Run(Config{
		Shards:          2,
		Threads:         2,
		Ops:             4000,
		Keyspace:        4096,
		Mix:             mixFor(t, "var-ycsb-b"),
		Seed:            3,
		MeasureRecovery: true,
		OnTable:         func(tb *core.Table) { tables = append(tables, tb) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0] == tables[1] {
		t.Fatalf("OnTable saw %d tables, want the 2 shards", len(tables))
	}
	if res.RecoveryOpenNS <= 0 || res.RecoveryFullNS < res.RecoveryOpenNS || res.RecoveryCleanOpenNS <= 0 {
		t.Errorf("restart timings open %d full %d clean %d", res.RecoveryOpenNS, res.RecoveryFullNS, res.RecoveryCleanOpenNS)
	}
	if rec := res.Recovery; rec == nil || rec.Counters["recovery.segments_ns"] == 0 || rec.Counters["recovery.log_ns"] == 0 ||
		rec.Counters["recovery.lazy.segments"] != uint64(res.Segments) {
		t.Errorf("recovery work not summed over shards: %+v, %d segments", rec, res.Segments)
	}
}

// The measured phase must stay allocation-free per operation in both kinds
// of cell: requests, encode buffers and read buffers are reused, as the two
// old hand-written loops did by construction. The few allocations a phase
// does make (its goroutines, a split's mirror) do not grow with the op count.
// The variable-length cells run the read mix: the engine's copy-on-write
// UpdateB allocates by itself, which is not the harness's doing.
func TestMeasuredPhaseAllocationFree(t *testing.T) {
	const ops = 20_000
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"direct-u64", Config{Mix: mixFor(t, "balanced")}},
		{"direct-var", Config{Mix: mixFor(t, "var-read")}},
		{"frontend-u64", Config{Mix: mixFor(t, "balanced"), Shards: 2}},
		{"frontend-var", Config{Mix: mixFor(t, "var-read"), Shards: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Threads, cfg.Ops, cfg.WarmupOps, cfg.Keyspace, cfg.Seed = 2, ops, 2_000, 8_192, 42
			c, err := newCell(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.close()
			clients, err := c.start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := runPhase(clients, cfg.WarmupOps, false); err != nil {
				t.Fatal(err)
			}
			ts0 := c.stats()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := runPhase(clients, ops, true); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			ts1 := c.stats()
			var splits uint64
			for i := range ts1 {
				splits += ts1[i].Splits - ts0[i].Splits
			}
			n := after.Mallocs - before.Mallocs
			t.Logf("%d allocations, %d splits over %d measured ops", n, splits, ops)
			if n > ops/100 {
				t.Errorf("%d allocations over %d measured ops, want none per op", n, ops)
			}
		})
	}
}
