package bench

import (
	"runtime"
	"testing"

	"dash/internal/core"
	"dash/internal/workload"
)

// Every registered client simulation must run end to end through a service
// cell at a small scale, pass its own lost-op audit, and show fence elision
// working (elided > 0 on write-bearing mixes).
func TestServiceCellAllSims(t *testing.T) {
	for _, sim := range workload.ClientSims {
		sim := sim
		t.Run(sim.Name, func(t *testing.T) {
			res, err := Run(Config{
				Shards:    2,
				Batch:     4,
				Threads:   2,
				Ops:       4000,
				WarmupOps: 400,
				Keyspace:  4096,
				Sim:       sim,
				Seed:      42,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != 4000 {
				t.Fatalf("Ops = %d, want 4000", res.Ops)
			}
			if res.Mix != sim.Name || res.Threads != 2 || res.Shards != 2 || res.Batch != 4 {
				t.Fatalf("result echoes %q threads %d shards %d batch %d", res.Mix, res.Threads, res.Shards, res.Batch)
			}
			if res.Hist.Total() != 4000 {
				t.Fatalf("latency samples = %d, want 4000", res.Hist.Total())
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
			if res.FencesElidedPerOp <= 0 {
				t.Fatal("no fences elided; the batch window never engaged")
			}
			if sim.SessionOps > 0 && res.Reconnects == 0 {
				t.Fatal("churn sim produced no reconnects")
			}
			if sim.ShardTheta != 0 && res.Imbalance <= 0 {
				t.Fatal("hot-shard sim produced no shard imbalance")
			}
		})
	}
}

// The batched configuration must use strictly fewer PM fences per op than
// the unbatched baseline on a write-bearing simulation — the relation the
// svc-balanced gate cell asserts with committed thresholds.
func TestServiceCellFenceReduction(t *testing.T) {
	run := func(shards, batch int) *Result {
		res, err := Run(Config{
			Shards:    shards,
			Batch:     batch,
			Threads:   2,
			Ops:       4000,
			WarmupOps: 400,
			Keyspace:  4096,
			Sim:       simFor(t, "svc-balanced"),
			Seed:      7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	baseline := run(1, 0) // batch < 1 means the unbatched baseline
	batched := run(2, 8)
	if baseline.Batch != 1 {
		t.Fatalf("baseline ran at batch %d, want 1", baseline.Batch)
	}
	if batched.FencesPerOp >= baseline.FencesPerOp {
		t.Fatalf("batched %.3f fences/op, want < baseline %.3f", batched.FencesPerOp, baseline.FencesPerOp)
	}
	if batched.BatchSizeMean <= 1 {
		t.Fatalf("batch mean %.2f, want > 1", batched.BatchSizeMean)
	}
}

// A service row carries the engine's telemetry summed over its shards: the
// table-shape, DRAM-tier and split columns the old service harness left at
// zero. Load factor is total count over total slot capacity.
func TestServiceRowCarriesTableTelemetry(t *testing.T) {
	res, err := Run(Config{
		Shards:    2,
		Batch:     8,
		Threads:   2,
		Ops:       10_000,
		WarmupOps: 1_000,
		Keyspace:  4_096,
		Sim:       simFor(t, "svc-balanced"),
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Splits == 0 || res.SegFilterHits == 0 || res.DirCacheHits == 0 {
		t.Errorf("splits %d, seg filter hits %d, dir cache hits %d: want all non-zero",
			res.Splits, res.SegFilterHits, res.DirCacheHits)
	}
	if res.DirCacheBytes == 0 || res.SegFilterBytes == 0 || res.AllocatedBytes == 0 {
		t.Errorf("DRAM/PM footprints not summed: %+v", res.TableStats)
	}
	var splits uint64
	for _, row := range res.PerShard {
		splits += row.Splits
	}
	if splits != res.Splits {
		t.Errorf("per-shard splits sum to %d, aggregate %d", splits, res.Splits)
	}
	if want := float64(res.Count) / float64(res.SlotCapacity); res.LoadFactor != want || want <= 0 || want > 1 {
		t.Errorf("load factor %f, want count/capacity = %f", res.LoadFactor, want)
	}
}

// MeasureRecovery on a service cell reopens every shard through
// service.Open; OnTable sees every table the cell builds.
func TestServiceCellRecoveryAndOnTable(t *testing.T) {
	var tables []*core.Table
	res, err := Run(Config{
		Shards:          2,
		Batch:           4,
		Threads:         2,
		Ops:             4000,
		Keyspace:        4096,
		Sim:             simFor(t, "svc-tenants"),
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
	if res.RecoverySegmentsNS <= 0 || res.RecoveryLogNS <= 0 {
		t.Errorf("recovery work not summed over shards: segments %d log %d", res.RecoverySegmentsNS, res.RecoveryLogNS)
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
		{"direct-u64", Config{Sim: simFor(t, "balanced")}},
		{"direct-var", Config{Sim: simFor(t, "var-read")}},
		{"frontend-u64", Config{Sim: simFor(t, "svc-balanced"), Shards: 2, Batch: 8}},
		{"frontend-var", Config{Sim: simFor(t, "var-read"), Shards: 2, Batch: 8}},
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
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := runPhase(clients, ops, true); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n > ops/100 {
				t.Errorf("%d allocations over %d measured ops, want none per op", n, ops)
			}
		})
	}
}
