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
//
// The balanced cell's reads and writes were re-pinned at PR 20 (from 8 318 and
// 17 787), when the split's copy stopped locking: its measured phase runs 8
// splits, and each lost the lock CASes of the old copy (two per destination
// home pair of the sibling, two more on the old segment's home pair and two
// on the sibling's per stash record, the sibling's stash-bucket and
// displacement locks: −1 702 write lines, ≈ 213 a split) and the record lines
// the sweep re-read in buckets whose version those old-segment locks had
// moved (−636 read lines, ≈ 80 a split). Flushed lines and fences did not
// move, which is the proof that no persist went with the locks; the other
// two cells split nothing in their measured phase and did not move at all.
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
		pm:     pmem.StatsSnapshot{ReadLines: 7682, WriteLines: 16085, FlushedLines: 12952, Fences: 10318},
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
