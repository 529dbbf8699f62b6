package bench

import (
	"testing"

	"dash/internal/pmem"
)

// equivCell is what one seeded single-thread direct cell must reproduce:
// the outcome tallies and the measured-phase PM traffic, which depend only
// on the operation sequence the harness feeds the table.
type equivCell struct {
	mix    string
	counts Counts
	pm     pmem.StatsSnapshot
}

// TestEquivalenceWithParentHarness pins the op sequences the harness
// generates: the constants were captured at commit 35c17b0 (PR 13) with the
// old direct-table bench.Run, before the two harnesses were merged into one.
// A 1-thread direct cell with the cost model off is deterministic, so any
// difference means the runner feeds the table different operations than the
// old one did.
func TestEquivalenceWithParentHarness(t *testing.T) {
	for _, want := range equivCells {
		t.Run(want.mix, func(t *testing.T) {
			res, err := Run(Config{
				Threads:   1,
				Ops:       10_000,
				WarmupOps: 1_000,
				Keyspace:  4_096,
				Sim:       simFor(t, want.mix),
				Seed:      42,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Counts != want.counts {
				t.Errorf("counts = %+v\nwant %+v", res.Counts, want.counts)
			}
			got := res.PM
			got.FencesElided, got.DeviceNS = 0, pmem.DeviceNS{}
			if got != want.pm {
				t.Errorf("PM traffic = %+v\nwant %+v", got, want.pm)
			}
		})
	}
}

var equivCells = []equivCell{
	{
		mix:    "balanced",
		counts: Counts{Preloaded: 4096, InsertOK: 5505, ReadHit: 5495},
		pm:     pmem.StatsSnapshot{ReadLines: 8318, WriteLines: 17787, FlushedLines: 12952, Fences: 10318},
	},
	{
		mix:    "delete-heavy",
		counts: Counts{Preloaded: 4096, InsertOK: 2711, ReadHit: 1531, ReadMiss: 1249, DeleteOK: 3069, DeleteNF: 2440},
		pm:     pmem.StatsSnapshot{ReadLines: 10428, WriteLines: 17421, FlushedLines: 7545, Fences: 7545},
	},
	{
		mix:    "var-ycsb-b",
		counts: Counts{Preloaded: 4096, ReadHit: 10425, UpdateOK: 575},
		pm:     pmem.StatsSnapshot{ReadLines: 34323, WriteLines: 4136, FlushedLines: 3070, Fences: 1812},
	},
}
