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
//   - balanced (8 splits, 502 persist-first steps, each counted by a meter of
//     its own). Writes 10 339 → 9 811: −8 × 66 sweep meta
//     words. Flushed lines 12 952 → 12 926: −528 sweep flushes, +502. Fences
//     10 318 → 10 812: −8 sweep fences, +502.
//   - delete-heavy (no split while measured; 4 persist-first steps in buckets
//     the preload's splits left behind). Flushed lines and fences 7 545 →
//     7 549; writes unchanged.
//
// They were re-pinned again when an insert began committing in one line
// wherever it can; counts and reads did not move. An insert writes one line
// into a slot that shares its bucket's header line and two otherwise.
// Taken one change at a time:
//
//   - the split's copy fills each sibling bucket from its highest free slot
//     down, leaving the header line's slots to later inserts.
//     Balanced: slot inserts 5 019 → 5 018, one displacement fewer (59 →
//     58); into slots 0–1 522 → 1 529, into slots ≥ 2 4 497 → 3 489. Writes
//     9 811 → 8 801: the inserts' lines 9 516 → 8 507 (−1 009), −1 for the
//     displacement's bitmap clear. Flushed lines 12 926 → 12 914 and fences
//     10 812 → 10 800: −9 persist-first steps (502 → 493), −3 for the
//     displacement's three persists.
//     Delete-heavy (no split while measured): writes 6 853 → 6 867,
//     flushed lines and fences 7 549 → 7 550. Its inserts take the slots its
//     deletes free, and the copy's order decides which records the preload
//     left in which slots, so it reshuffles which slot a delete frees: into
//     slots 0–1 692 → 678, slot 2 318 → 379, slots ≥ 3 1 436 → 1 389. Slot
//     2 is still a second line here, so the +14 writes are the 14 inserts
//     that moved from slots 0–1 to slot 2, and 1 more persist-first step
//     (4 → 5) is the +1. The header line's three slots gained 47 inserts
//     (1 010 → 1 057); the next change cashes them.
//   - the PM bucket header shrank to the bitmap, so records start at offset
//     16 and slot 2 shares the header line too, and fingerprints and stash
//     tracking left PM. Balanced: writes 8 801 → 7 962, −669 inserts into
//     slot 2, −170 stash spills that no longer store the home bucket's
//     header; flushed lines 12 914 → 12 744 and fences 10 800 → 10 630, the
//     spills' −170 tracking persists. Delete-heavy: writes 6 867 → 6 451,
//     −379 inserts into slot 2, −37 stash deletes that no longer untrack in
//     PM; flushed lines and fences 7 550 → 7 513, their −37 persists.
//
// Two cells were re-pinned when a doubling began freeing the old directory
// block at once instead of retiring it through the epoch manager; counts
// did not move, and the home bucket's stash count, which replaced its stash
// tracking in the same change, moved nothing:
//
//   - balanced (one doubling from depth 3 while measured). Its new
//     256-byte directory is the block the preload's last doubling freed, a
//     free-list hit where it used to be a bump, so the allocator's frontier
//     store and persist go: writes 7 962 → 7 961, flushed lines 12 744 →
//     12 743, fences 10 630 → 10 629.
//   - var-ycsb-b (no doubling while measured). The preload's three
//     doublings no longer retire anything, and the epoch manager advances
//     every 64 retirements, so the updates' retired blobs reach the record
//     log's free list at other points (reclaimed while measured 448 → 384)
//     and appends land at other addresses: free-list hits 330 → 329, bumps
//     203 → 204. Reads 31 809 → 31 800: the blob dereferences cross 9 fewer
//     line boundaries. Writes and flushed lines 2 453 → 2 455: the extra
//     bump's frontier store, and one more line among the appended blobs';
//     fences 1 269 → 1 270, the bump's persist.
//
// The two u64 cells were re-pinned when the PM bucket lost its bitmap (table
// format 7): a record's non-zero word 0 commits it, so every insert writes,
// flushes and fences its record's line alone, once, and an insert into a
// stale slot persists nothing first. Counts and reads did not move; neither
// did a split's, a delete's or a stash spill's stores beyond its insert.
// Taken per cell:
//
//   - balanced. The copy now fills each sibling bucket from slot 0, as
//     every insert does, which reshuffles one placement: displacements
//     58 → 59, so slot inserts (placed plus displacements) 5 018 → 5 019 and
//     displacement deletes 58 → 59. Writes 7 961 → 5 143: the 2 820 inserts
//     outside the header line wrote two lines and write one, −2 820, +1 slot
//     insert, +1 delete. Flushed lines 12 743 → 7 234 and fences
//     10 629 → 5 120, −5 509 each: −5 018 bitmap persists, −493 persist-first
//     steps, +1 slot insert, +1 delete.
//   - delete-heavy (2 446 inserts, 1 389 of them outside the header line;
//     2 616 deletes). Writes 6 451 → 5 062: −1 389. Flushed lines and fences
//     7 513 → 5 062: −2 446 bitmap persists, −5 persist-first steps.
//
// The balanced cell was re-pinned once more when the split stopped
// persisting a progress marker into the old segment's header: per split two
// stores (set, and clear with the header bump), one flush and one fence
// fewer. Its 8 splits take writes 5 143 → 5 127, flushed lines 7 234 →
// 7 226 and fences 5 120 → 5 112; counts and reads did not move, and no
// other cell splits while measured.
//
// The balanced cell was re-pinned again when the split's copy stopped
// grouping the sibling's records by destination home and began inserting
// each as its scan of the old segment finds it, bucket then slot. The
// sibling's records land in other places, so later inserts do too: of the
// 4 960 placements, home 3 000 → 2 982, probe 1 731 → 1 739, displaced
// 59 → 69, stash 170 unchanged, and the 8 splits stay 8. Each of the 10
// extra displacements moves its victim (one line, one flush, one fence) and
// deletes it (one more each), so writes 5 127 → 5 147, flushed lines
// 7 226 → 7 246 and fences 5 112 → 5 132; counts and reads did not move,
// and no other cell splits while measured.
//
// The balanced cell's flushed lines were re-pinned when the PM bucket lost
// its paddings (table format 8): a segment is its header line and 924
// records back to back, 232 lines instead of 265, so each of the 8 splits'
// sibling persists flushes 33 lines fewer: 7 246 → 6 982. No placement
// moved — DRAM takes every decision — and neither did any other field or
// cell.
func TestEquivalenceWithParentHarness(t *testing.T) {
	for _, want := range equivCells {
		t.Run(want.mix, func(t *testing.T) {
			res, err := Run(Config{
				Threads:   1,
				Ops:       10_000,
				WarmupOps: 1_000,
				Keyspace:  4_096,
				Mix:       mixFor(t, want.mix),
				Seed:      42,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Counts != want.counts {
				t.Errorf("counts = %+v\nwant %+v", res.Counts, want.counts)
			}
			got := res.PM
			got.DeviceNS = pmem.DeviceNS{}
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
		pm:     pmem.StatsSnapshot{ReadLines: 0, WriteLines: 5147, FlushedLines: 6982, Fences: 5132},
	},
	{
		mix:    "delete-heavy",
		counts: Counts{Preloaded: 4096, InsertOK: 2711, ReadHit: 1531, ReadMiss: 1249, DeleteOK: 3069, DeleteNF: 2440},
		pm:     pmem.StatsSnapshot{ReadLines: 0, WriteLines: 5062, FlushedLines: 5062, Fences: 5062},
	},
	{
		mix:    "var-ycsb-b",
		counts: Counts{Preloaded: 4096, ReadHit: 10425, UpdateOK: 575},
		pm:     pmem.StatsSnapshot{ReadLines: 31800, WriteLines: 2455, FlushedLines: 2455, Fences: 1270},
	},
}
