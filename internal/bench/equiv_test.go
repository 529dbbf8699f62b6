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
// Reads and writes of all three cells were re-pinned at PR 21, when the bucket
// lock, the route claim and the writers' probe moved to the segment mirror;
// FlushedLines and Fences did not move in any of them, which is the proof
// that no persist moved with them. Per cell, from the PR 20 pins (the
// balanced cell's had been re-pinned there, from 8 318 and 17 787, when the
// split's copy stopped locking):
//
//   - balanced (4 968 writer ops, 5 019 slot inserts of which 4 497 into
//     slots ≥ 2, 59 displacements, 170 stash spills, 8 splits). Writes
//     16 085 → 10 364: −10 975 lock CASes (2 × 4 968 pair locks, 237
//     displacement try-locks, 274 stash-bucket locks, 8 × 66 publish locks),
//     and the header-line stores those CASes used to pay for are charged where
//     they happen: +4 497 (an insert into a slot that does not share the
//     header line), +59 (a displaced record's bitmap clear), +170 (overflow
//     tracking), +528 (the sweeps' meta words, one per swept bucket). Reads
//     7 682 → 77: −4 968 claim checks, −356 record lines of
//     fingerprint-matched slots, −8 × 265 for the copy's streaming read of
//     the old segment, −8 for the splits' read of its header, −153 for
//     displacement victim scans and the sweeps' stash records; what is left
//     is the splits' PM directory walks and the allocator.
//   - delete-heavy (7 469 writer ops, 2 446 inserts of which 1 754 into
//     slots ≥ 2, 2 616 deletes of which 37 from the stash). Writes 17 421 →
//     6 853: −2 × 7 469 pair locks −37 stash-bucket locks, +1 754 +2 616 (a
//     delete's bitmap clear) +37 (its untracking). Reads 10 428 → 2: −7 469
//     claim checks −2 957 record lines.
//   - var-ycsb-b (533 copy-on-write updates). Writes 4 136 → 3 070: −2 × 533.
//     Reads 34 323 → 33 240: −533 claim checks −550 record lines; the blobs'
//     key lines stay.
//
// Reads were re-pinned again when the last PM metadata reads of a running
// table moved to DRAM; writes moved only where a PM read-modify-write or a
// per-entry charge went, and FlushedLines and Fences again did not move:
//
//   - balanced (8 splits, one doubling from depth 3). Reads 77 → 0: −19 for
//     the readers' sampled mirror-vs-PM check (1/1024 of 5 495 Gets, a bucket
//     each), −8 × 6 for each split's PM directory walks (its post-claim
//     re-check 3, its publish 2) and the allocator's frontier load (1), −10
//     for the doubling (the new directory's frontier load, the old block's
//     depth and 8 entries). Writes 10 364 → 10 339: −8 split-word CASes, −17
//     for the doubled block's depth and 16 entries, now quiet stores charged
//     by the flush that publishes the block.
//   - delete-heavy. Reads 2 → 0: the sampled check.
//   - var-ycsb-b. Reads 33 240 → 33 007: −20 for the sampled check, −213 for
//     the record log's allocation words (the bump pointer of every append
//     the free list missed, the head pointer of a chunk grow); what is left
//     is the blobs' key and value lines.
//
// The var-ycsb-b cell was re-pinned when blobs lost their commit word (the
// slot store is a blob's commit) and their header shrank from 16 bytes to 8;
// the other two cells write no blob and did not move. Taken one change at a
// time:
//
//   - no commit word: each of the 533 copy-on-write updates stores, flushes
//     and fences one line fewer. Writes and flushed lines 3 070 → 2 537,
//     fences 1 812 → 1 279; reads unchanged.
//   - the 8-byte header: every blob is 8 bytes shorter, and about half drop
//     a 16-byte capacity class. Reads 33 007 → 31 809: the blob dereferences
//     of 10 425 reads and 533 updates cross 1 198 fewer line boundaries.
//     Writes and flushed lines 2 537 → 2 453: −74 blob lines persisted, and
//     −10 frontier stores, because 10 more appends found a freed span of
//     their class (free-list hits 320 → 330, bumps 213 → 203); the same 10
//     bumps are the fences 1 279 → 1 269.
//
// The two u64 cells were re-pinned when a split's sweep of its moved half
// became DRAM-only (core's segDrop) and an insert into a slot the sweep left
// set in PM began persisting its bucket's meta word first; counts and reads
// did not move, and the persist-first step charges no line of its own:
//
//   - balanced (8 splits, 502 persist-first steps in
//     bucket.stale_meta_persists). Writes 10 339 → 9 811: −8 × 66 sweep meta
//     words. Flushed lines 12 952 → 12 926: −528 sweep flushes, +502. Fences
//     10 318 → 10 812: −8 sweep fences, +502.
//   - delete-heavy (no split while measured; 4 persist-first steps in buckets
//     the preload's splits left behind). Flushed lines and fences 7 545 →
//     7 549; writes unchanged.
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
		pm:     pmem.StatsSnapshot{ReadLines: 0, WriteLines: 9811, FlushedLines: 12926, Fences: 10812},
	},
	{
		mix:    "delete-heavy",
		counts: Counts{Preloaded: 4096, InsertOK: 2711, ReadHit: 1531, ReadMiss: 1249, DeleteOK: 3069, DeleteNF: 2440},
		pm:     pmem.StatsSnapshot{ReadLines: 0, WriteLines: 6853, FlushedLines: 7549, Fences: 7549},
	},
	{
		mix:    "var-ycsb-b",
		counts: Counts{Preloaded: 4096, ReadHit: 10425, UpdateOK: 575},
		pm:     pmem.StatsSnapshot{ReadLines: 31809, WriteLines: 2453, FlushedLines: 2453, Fences: 1269},
	},
}
