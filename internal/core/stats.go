package core

// Table-shape introspection for the benchmark harness and tests: everything
// an observer needs to reason about load factor, directory growth and stash
// pressure without reaching into the layer internals.

// TableStats is a point-in-time structural snapshot of a Table.
//
// Taken concurrently with writers it is approximate — per-bucket occupancy
// words are read atomically but not mutually consistently — which is the
// right trade for a monitoring surface: it never blocks the data path.
//
// The JSON tags are the BENCH file's column names (schema v8): the harness
// embeds a TableStats in its result row and marshals it as is.
type TableStats struct {
	// Count is the number of live records (exact, from the table's counter).
	Count int64 `json:"count"`
	// GlobalDepth is the directory's depth; the directory holds 2^GlobalDepth
	// segment pointers.
	GlobalDepth uint8 `json:"global_depth"`
	// Segments is the number of distinct segments the directory references.
	Segments int `json:"segments"`
	// SlotCapacity is Segments × slots per segment: the record capacity at
	// the current shape.
	SlotCapacity int64 `json:"-"`
	// LoadFactor is Count / SlotCapacity.
	LoadFactor float64 `json:"load_factor"`
	// StashRecords is the number of records living in stash buckets.
	StashRecords int64 `json:"-"`
	// StashShare is StashRecords over the records observed by the walk — the
	// fraction of lookups' worst-case extra probes the stash is absorbing.
	StashShare float64 `json:"stash_share"`
	// AllocatedBytes is the PM consumed by the bump allocator (segments,
	// directories, including retired-but-reusable blocks).
	AllocatedBytes uint64 `json:"allocated_bytes"`

	// DirCacheHits and DirCacheMisses count cached-route outcomes. A hit is
	// a route that served its operation: a read answered from DRAM or a
	// writer whose locked segment's mirrored header claimed the key (neither
	// reads the PM directory; that skip is the point of the cache). A miss
	// is a stale route caught by a failed validation, forcing a repair +
	// retry.
	DirCacheHits   uint64 `json:"dir_cache_hits"`
	DirCacheMisses uint64 `json:"dir_cache_misses"`
	// DirCacheHitRate is DirCacheHits over all route outcomes (1 when
	// idle). Counters are cumulative since Create/Open; windowed consumers
	// (internal/bench) subtract a baseline snapshot.
	DirCacheHitRate float64 `json:"dir_cache_hit_rate"`
	// DirCacheRebuilds counts full O(directory) cache reconstructions
	// (Create and Open; doublings are not rebuilds).
	DirCacheRebuilds uint64 `json:"-"`
	// DirCacheBytes approximates the cache's DRAM footprint: 8 bytes per
	// directory entry.
	DirCacheBytes uint64 `json:"dir_cache_bytes"`

	// Record-log (varlog) space accounting, for variable-length records:
	// pool bytes held by log chunks, capacity of live (committed,
	// referenced) blobs and their count, and capacity parked on the DRAM
	// free list awaiting reuse.
	LogChunkBytes uint64 `json:"log_chunk_bytes"`
	LogLiveBytes  uint64 `json:"log_live_bytes"`
	LogLiveBlobs  int64  `json:"log_live_blobs"`
	LogFreeBytes  uint64 `json:"log_free_bytes"`

	// Segment filter mirror (segfilter.go) accounting. SegFilterBytes is the
	// DRAM held by installed per-segment mirrors. Hits are reads fully served
	// by a mirror (positive, or a miss the mirror could vouch for); Misses
	// are probes whose claim or route check failed, which waited out the
	// publish that moved their route and retried. Counters are cumulative
	// since Create/Open; windowed consumers subtract a baseline.
	SegFilterBytes  uint64 `json:"seg_filter_bytes"`
	SegFilterHits   uint64 `json:"seg_filter_hits"`
	SegFilterMisses uint64 `json:"seg_filter_misses"`
	// SegFilterBypass is always 0: no read runs without a mirror. Kept for
	// benchmark/engine.go and the BENCH row schema; goes when they drop it.
	SegFilterBypass uint64 `json:"seg_filter_bypass"`
	// SegFilterHitRate is SegFilterHits over all mirror probe outcomes
	// (1 when idle).
	SegFilterHitRate float64 `json:"seg_filter_hit_rate"`
	// SegFilterChecks and SegFilterHeals are always 0: nothing at run time
	// checks a mirror against PM or heals it from PM (Table.Verify is the
	// check). Kept for benchmark/engine.go and the BENCH row schema, like
	// SegFilterBypass.
	SegFilterChecks uint64 `json:"seg_filter_checks"`
	SegFilterHeals  uint64 `json:"seg_filter_heals"`

	// Splits counts completed segment splits since Create/Open. Windowed
	// consumers (internal/bench) subtract a baseline snapshot.
	Splits uint64 `json:"splits"`
	// SplitStallNS is the cumulative wall time split publishes held every
	// bucket lock of their segment (including any directory doubling, and
	// the recopy when a writer invalidated the unlocked copy): the
	// segment-freeze exposure that remains now that the copy runs unlocked.
	SplitStallNS int64 `json:"split_stall_ns"`
	// SplitAssists is always 0: writers do nothing for an in-flight split
	// (registry counter split.recopies is what a racing writer costs). Kept
	// for benchmark/engine.go and the BENCH row schema; goes when they drop
	// it.
	SplitAssists uint64 `json:"split_assists"`

	// Epoch reclamation accounting: objects handed to Retire, objects
	// actually freed, and objects still pending. Cumulative like the other
	// counters; the retire→free lag distribution lives in the registry
	// ("epoch.reclaim_lag_ns").
	EpochRetired   uint64 `json:"epoch_retired"`
	EpochReclaimed uint64 `json:"epoch_reclaimed"`
	EpochPending   uint64 `json:"epoch_pending"`

	// Record-log free-list outcome counts: blob allocations served by
	// exact-capacity reuse vs. fresh bump allocations.
	LogFreeHits   uint64 `json:"log_free_hits"`
	LogFreeMisses uint64 `json:"log_free_misses"`

	// Recovery phase wall times from the Open that produced this table
	// (zero after Create): directory rebuild (stored once by Open), segment
	// reconcile, record-log sweep, and the per-segment filter-mirror
	// installs. Under lazy recovery the last three accumulate as first
	// touches and the background sweep run, converging to the eager totals.
	RecoveryDirNS      int64 `json:"recovery_dir_ns,omitempty"`
	RecoverySegmentsNS int64 `json:"recovery_segments_ns,omitempty"`
	RecoveryLogNS      int64 `json:"recovery_log_ns,omitempty"`
	RecoveryMirrorsNS  int64 `json:"recovery_mirrors_ns,omitempty"`
	RecoveryTotalNS    int64 `json:"recovery_total_ns,omitempty"`

	// Lazy-recovery restart latency split: RecoveryOpenNS is Open's
	// O(directory) wall time (time-to-first-op); RecoveryFullNS is
	// Open→background-sweep-done (time-to-fully-recovered, 0 until it
	// completes); RecoveryPendingSegments counts segments still awaiting
	// first touch.
	RecoveryOpenNS          int64 `json:"recovery_open_ns,omitempty"`
	RecoveryFullNS          int64 `json:"recovery_full_ns,omitempty"`
	RecoveryPendingSegments int64 `json:"-"`
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
	var walked, stash int64
	segments := 0
	v.eachSegment(func(d *segDesc) {
		segments++
		for bi := 0; bi < totalBuckets; bi++ {
			m := p.QuietLoadU64(segBucket(d.seg, bi).Add(bkOffMeta))
			used := int64(slotsPerBucket - metaFreeSlots(m))
			walked += used
			if bi >= normalBuckets {
				stash += used
			}
		}
	})

	hits, misses := t.cache.hits.Total(), t.cache.misses.Total()
	lg := t.vlog.Stats()
	st := TableStats{
		Count:            t.count.Load(),
		GlobalDepth:      v.depth,
		Segments:         segments,
		SlotCapacity:     int64(segments) * slotsPerSegment,
		StashRecords:     stash,
		AllocatedBytes:   p.QuietLoadU64(rootAddr.Add(rootOffAllocNxt)) - allocStart,
		DirCacheHits:     hits,
		DirCacheMisses:   misses,
		DirCacheRebuilds: t.cache.rebuilds.Total(),
		DirCacheBytes:    8 * uint64(len(v.entries)),
		SegFilterBytes:   t.filters.bytes.Load(),
		SegFilterHits:    t.filters.hits.Total(),
		SegFilterMisses:  t.filters.misses.Total(),
		LogChunkBytes:    lg.ChunkBytes,
		LogLiveBytes:     lg.LiveBytes,
		LogLiveBlobs:     lg.LiveBlobs,
		LogFreeBytes:     lg.FreeBytes,
		Splits:           t.splits.Load(),
		SplitStallNS:     t.splitStallNS.Load(),

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
	st.deriveRates()
	if walked > 0 {
		st.StashShare = float64(stash) / float64(walked)
	}
	return st
}

// deriveRates sets the ratio fields that follow from the counters: load
// factor, and the two hit rates (1 when idle).
func (s *TableStats) deriveRates() {
	s.LoadFactor, s.DirCacheHitRate, s.SegFilterHitRate = 0, 1, 1
	if s.SlotCapacity > 0 {
		s.LoadFactor = float64(s.Count) / float64(s.SlotCapacity)
	}
	if n := s.DirCacheHits + s.DirCacheMisses; n > 0 {
		s.DirCacheHitRate = float64(s.DirCacheHits) / float64(n)
	}
	if n := s.SegFilterHits + s.SegFilterMisses; n > 0 {
		s.SegFilterHitRate = float64(s.SegFilterHits) / float64(n)
	}
}

// Add returns the stats of two tables as one — a service's shards summed
// into the shape of the whole. Counts, capacities, byte sizes and times
// add; GlobalDepth is the deeper directory's; the ratios are re-derived
// from the sums, so LoadFactor is total count over total slot capacity, not
// a mean of per-table ratios. StashShare takes Count for the walk's tally,
// which it equals on a quiescent table.
func (s TableStats) Add(o TableStats) TableStats {
	s.Count += o.Count
	s.GlobalDepth = max(s.GlobalDepth, o.GlobalDepth)
	s.Segments += o.Segments
	s.SlotCapacity += o.SlotCapacity
	s.StashRecords += o.StashRecords
	s.AllocatedBytes += o.AllocatedBytes
	s.DirCacheHits += o.DirCacheHits
	s.DirCacheMisses += o.DirCacheMisses
	s.DirCacheRebuilds += o.DirCacheRebuilds
	s.DirCacheBytes += o.DirCacheBytes
	s.LogChunkBytes += o.LogChunkBytes
	s.LogLiveBytes += o.LogLiveBytes
	s.LogLiveBlobs += o.LogLiveBlobs
	s.LogFreeBytes += o.LogFreeBytes
	s.SegFilterBytes += o.SegFilterBytes
	s.SegFilterHits += o.SegFilterHits
	s.SegFilterMisses += o.SegFilterMisses
	s.Splits += o.Splits
	s.SplitStallNS += o.SplitStallNS
	s.EpochRetired += o.EpochRetired
	s.EpochReclaimed += o.EpochReclaimed
	s.EpochPending += o.EpochPending
	s.LogFreeHits += o.LogFreeHits
	s.LogFreeMisses += o.LogFreeMisses
	s.RecoveryDirNS += o.RecoveryDirNS
	s.RecoverySegmentsNS += o.RecoverySegmentsNS
	s.RecoveryLogNS += o.RecoveryLogNS
	s.RecoveryMirrorsNS += o.RecoveryMirrorsNS
	s.RecoveryTotalNS += o.RecoveryTotalNS
	s.RecoveryOpenNS += o.RecoveryOpenNS
	s.RecoveryFullNS += o.RecoveryFullNS
	s.RecoveryPendingSegments += o.RecoveryPendingSegments
	s.deriveRates()
	s.StashShare = 0
	if s.Count > 0 {
		s.StashShare = float64(s.StashRecords) / float64(s.Count)
	}
	return s
}

// Since re-windows s to the interval after earlier (an older snapshot of
// the same table): the cumulative event counters — route and mirror
// outcomes, splits, epoch and free-list traffic — become deltas and the hit
// rates follow them, while the shape, size and backlog fields stay s's.
func (s TableStats) Since(earlier TableStats) TableStats {
	s.DirCacheHits -= earlier.DirCacheHits
	s.DirCacheMisses -= earlier.DirCacheMisses
	s.SegFilterHits -= earlier.SegFilterHits
	s.SegFilterMisses -= earlier.SegFilterMisses
	s.Splits -= earlier.Splits
	s.SplitStallNS -= earlier.SplitStallNS
	s.EpochRetired -= earlier.EpochRetired
	s.EpochReclaimed -= earlier.EpochReclaimed
	s.LogFreeHits -= earlier.LogFreeHits
	s.LogFreeMisses -= earlier.LogFreeMisses
	s.deriveRates()
	return s
}
