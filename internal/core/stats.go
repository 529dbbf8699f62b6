package core

import (
	"dash/internal/pmem"
)

// Table-shape introspection for the benchmark harness and tests: everything
// an observer needs to reason about load factor, directory growth and stash
// pressure without reaching into the layer internals.

// TableStats is a point-in-time structural snapshot of a Table.
//
// Taken concurrently with writers it is approximate — per-bucket occupancy
// words are read atomically but not mutually consistently — which is the
// right trade for a monitoring surface: it never blocks the data path.
type TableStats struct {
	// Count is the number of live records (exact, from the table's counter).
	Count int64
	// GlobalDepth is the directory's depth; the directory holds 2^GlobalDepth
	// segment pointers.
	GlobalDepth uint8
	// Segments is the number of distinct segments the directory references.
	Segments int
	// SlotCapacity is Segments × slots per segment: the record capacity at
	// the current shape.
	SlotCapacity int64
	// LoadFactor is Count / SlotCapacity.
	LoadFactor float64
	// StashRecords is the number of records living in stash buckets.
	StashRecords int64
	// StashShare is StashRecords over the records observed by the walk — the
	// fraction of lookups' worst-case extra probes the stash is absorbing.
	StashShare float64
	// AllocatedBytes is the PM consumed by the bump allocator (segments,
	// directories, including retired-but-reusable blocks).
	AllocatedBytes uint64

	// DirCacheHits and DirCacheMisses count cached-route outcomes. A hit is
	// a route that served its operation: a read answered from DRAM or a
	// writer whose locked segment's own PM header claimed the key (neither
	// reads the PM directory; that skip is the point of the cache), or a
	// reader's PM fallback that validateRoute confirmed. A miss is a stale
	// route caught by a failed validation, forcing a repair + retry.
	DirCacheHits, DirCacheMisses uint64
	// DirCacheHitRate is DirCacheHits over all route outcomes (1 when
	// idle). Counters are cumulative since Create/Open; windowed consumers
	// (internal/bench) subtract a baseline snapshot.
	DirCacheHitRate float64
	// DirCacheRebuilds counts full O(directory) cache reconstructions
	// (Create/Open plus any recovery rebuild; doublings are not rebuilds).
	DirCacheRebuilds uint64
	// DirCacheBytes approximates the cache's DRAM footprint: 8 bytes per
	// directory entry.
	DirCacheBytes uint64

	// Record-log (varlog) space accounting, for variable-length records:
	// pool bytes held by log chunks, capacity of live (committed,
	// referenced) blobs and their count, and capacity parked on the DRAM
	// free list awaiting reuse.
	LogChunkBytes uint64
	LogLiveBytes  uint64
	LogLiveBlobs  int64
	LogFreeBytes  uint64

	// Segment filter mirror (segfilter.go) accounting. SegFilterBytes is the
	// DRAM held by installed per-segment mirrors. Hits are reads fully served
	// by a mirror (positive, or a miss the mirror could vouch for); Misses
	// are probes that fell back to the PM path; Bypass counts reads that
	// found no mirror installed (expected 0 outside recovery windows).
	// Checks counts sampled mirror-vs-PM cross-checks, Heals in-place mirror
	// repairs (sampled check or validation disagreement). Counters are
	// cumulative since Create/Open; windowed consumers subtract a baseline.
	SegFilterBytes  uint64
	SegFilterHits   uint64
	SegFilterMisses uint64
	SegFilterBypass uint64
	// SegFilterHitRate is SegFilterHits over all mirror probe outcomes
	// (1 when idle).
	SegFilterHitRate float64
	SegFilterChecks  uint64
	SegFilterHeals   uint64

	// Splits counts completed segment splits since Create/Open. Windowed
	// consumers (internal/bench) subtract a baseline snapshot.
	Splits uint64
	// SplitStallNS is the cumulative wall time split publishes held every
	// bucket lock of their segment (including any directory doubling): the
	// table-freeze exposure that remains now that migration is incremental.
	SplitStallNS int64
	// SplitAssists counts writer operations mirrored into an in-flight
	// split's unpublished sibling (the writer-side cost of not freezing the
	// segment during migration).
	SplitAssists uint64

	// Epoch reclamation accounting: objects handed to Retire, objects
	// actually freed, and objects still pending. Cumulative like the other
	// counters; the retire→free lag distribution lives in the registry
	// ("epoch.reclaim_lag_ns").
	EpochRetired   uint64
	EpochReclaimed uint64
	EpochPending   uint64

	// Record-log free-list outcome counts: blob allocations served by
	// exact-capacity reuse vs. fresh bump allocations.
	LogFreeHits   uint64
	LogFreeMisses uint64

	// Recovery phase wall times from the Open that produced this table
	// (zero after Create): directory rebuild (stored once by Open), segment
	// reconcile, record-log sweep, and the per-segment filter-mirror
	// installs. Under lazy recovery the last three accumulate as first
	// touches and the background sweep run, converging to the eager totals.
	RecoveryDirNS      int64
	RecoverySegmentsNS int64
	RecoveryLogNS      int64
	RecoveryMirrorsNS  int64
	RecoveryTotalNS    int64

	// Lazy-recovery restart latency split: RecoveryOpenNS is Open's
	// O(directory) wall time (time-to-first-op); RecoveryFullNS is
	// Open→background-sweep-done (time-to-fully-recovered, 0 until it
	// completes); RecoveryPendingSegments counts segments still awaiting
	// first touch.
	RecoveryOpenNS          int64
	RecoveryFullNS          int64
	RecoveryPendingSegments int64
}

// Stats walks the DRAM directory cache for the segment set — observing the
// shape costs no PM directory traffic at all — and every segment's bucket
// headers via quiet (unaccounted) loads, so observing the table does not
// perturb the PM-traffic counters or the cost model mid-benchmark. It takes
// no locks; the epoch guard keeps the walk well-defined against concurrent
// structural changes.
func (t *Table) Stats() TableStats {
	g := t.em.Enter()
	defer g.Exit()
	p := t.pool

	v := t.cache.view.Load()
	seen := make(map[pmem.Addr]bool)
	var walked, stash int64
	for i := range v.entries {
		seg, _ := unpackEntry(v.entries[i].Load())
		if seg.IsNull() || seen[seg] {
			continue
		}
		seen[seg] = true
		for bi := 0; bi < totalBuckets; bi++ {
			m := p.QuietLoadU64(segBucket(seg, bi).Add(bkOffMeta))
			used := int64(slotsPerBucket - metaFreeSlots(m))
			walked += used
			if bi >= normalBuckets {
				stash += used
			}
		}
	}

	hits, misses := t.cache.hits.Total(), t.cache.misses.Total()
	fhits, fmisses, fbypass := t.filters.hits.Total(), t.filters.misses.Total(), t.filters.bypass.Total()
	lg := t.vlog.Stats()
	st := TableStats{
		Count:            t.count.Load(),
		GlobalDepth:      v.depth,
		Segments:         len(seen),
		SlotCapacity:     int64(len(seen)) * slotsPerSegment,
		StashRecords:     stash,
		AllocatedBytes:   p.QuietLoadU64(rootAddr.Add(rootOffAllocNxt)) - allocStart,
		DirCacheHits:     hits,
		DirCacheMisses:   misses,
		DirCacheHitRate:  1,
		DirCacheRebuilds: t.cache.rebuilds.Total(),
		DirCacheBytes:    8 * uint64(len(v.entries)),
		SegFilterBytes:   t.filters.bytes.Load(),
		SegFilterHits:    fhits,
		SegFilterMisses:  fmisses,
		SegFilterBypass:  fbypass,
		SegFilterHitRate: 1,
		SegFilterChecks:  t.filters.checks.Total(),
		SegFilterHeals:   t.filters.heals.Total(),
		LogChunkBytes:    lg.ChunkBytes,
		LogLiveBytes:     lg.LiveBytes,
		LogLiveBlobs:     lg.LiveBlobs,
		LogFreeBytes:     lg.FreeBytes,
		Splits:           t.splits.Load(),
		SplitStallNS:     t.splitStallNS.Load(),
		SplitAssists:     t.splitAssists.Load(),

		EpochRetired:   t.em.Retired.Total(),
		EpochReclaimed: t.em.Reclaimed.Total(),
		EpochPending:   t.em.Pending(),
		LogFreeHits:    t.vlog.FreeHits.Total(),
		LogFreeMisses:  t.vlog.FreeMisses.Total(),

		RecoveryDirNS:      t.met.recoveryNS[phaseDir].Load(),
		RecoverySegmentsNS: t.met.recoveryNS[phaseSegments].Load(),
		RecoveryLogNS:      t.met.recoveryNS[phaseLog].Load(),
		RecoveryMirrorsNS:  t.met.recoveryNS[phaseMirrors].Load(),
		RecoveryTotalNS:    t.met.recoveryTotalNS.Load(),

		RecoveryOpenNS:          t.met.recoveryOpenNS.Load(),
		RecoveryFullNS:          t.met.recoveryFullNS.Load(),
		RecoveryPendingSegments: t.recoveryPending(),
	}
	if hits+misses > 0 {
		st.DirCacheHitRate = float64(hits) / float64(hits+misses)
	}
	if n := fhits + fmisses + fbypass; n > 0 {
		st.SegFilterHitRate = float64(fhits) / float64(n)
	}
	if st.SlotCapacity > 0 {
		st.LoadFactor = float64(st.Count) / float64(st.SlotCapacity)
	}
	if walked > 0 {
		st.StashShare = float64(stash) / float64(walked)
	}
	return st
}
