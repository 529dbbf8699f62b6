package core

// Table-shape introspection: what an observer needs to reason about load
// factor, directory growth and stash pressure without reaching into the
// layer internals. Every meter lives in the registry (obs.go); the BENCH row
// reads it there.

// TableStats is a point-in-time structural snapshot of a Table: the shape
// walk, then readings of registry meters that the repo benchmark's engine
// (benchmark/engine.go) reads by field name — frozen until it reads the
// registry itself.
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
	// Records is the number of records the walk found in the mirrors of
	// recovered segments: Count once recovery is complete, at quiescence.
	Records int64
	// StashRecords is the number of those records living in stash buckets.
	StashRecords int64
	// StashShare is StashRecords over Records — the fraction of lookups'
	// worst-case extra probes the stash is absorbing.
	StashShare float64
	// AllocatedBytes is the PM consumed by the bump allocator (segments,
	// directories, including retired-but-reusable blocks).
	AllocatedBytes uint64

	// The frozen readings, cumulative since Create/Open where the meter is a
	// counter; each names its meter. Two are shape, not meters:
	// DirCacheBytes is the route cache's 8 bytes per directory entry,
	// LogChunkBytes the pool bytes the record log's chunks hold.
	DirCacheHits, DirCacheMisses                     uint64 // dircache.hits, .misses
	DirCacheBytes                                    uint64
	SegFilterBytes, SegFilterHits, SegFilterMisses   uint64 // segfilter.bytes, .hits, .misses
	Splits                                           uint64 // split.completed
	SplitStallNS                                     int64  // split.stall_ns
	EpochRetired, EpochReclaimed, EpochPending       uint64 // epoch.retired, .reclaimed, .pending
	LogChunkBytes                                    uint64
	LogLiveBytes, LogFreeBytes                       uint64 // varlog.live_bytes, .free_bytes
	LogFreeHits, LogFreeMisses                       uint64 // varlog.free_hits, .free_misses
	RecoveryDirNS, RecoverySegmentsNS, RecoveryLogNS int64  // recovery.directory_ns, .segments_ns, .log_ns
	RecoveryMirrorsNS                                int64  // recovery.mirrors_ns

	// SegFilterBypass, SegFilterHeals and SplitAssists name nothing and are
	// always 0: every read has a mirror, nothing at run time heals a mirror
	// from PM (Table.Verify is the check), and writers do nothing for an
	// in-flight split (a writer of the splitting segment waits out its
	// publish on the bucket locks).
	SegFilterBypass, SegFilterHeals, SplitAssists uint64
}

// Stats walks the DRAM directory cache for the segment set and the mirrors
// of the recovered segments for their records — observing the table reads no
// PM line, so it does not perturb the PM-traffic counters or the cost model
// mid-benchmark. (PM records would count a split's moved records twice: the
// old segment keeps them in PM until an insert reuses their slots.) A segment
// still awaiting first touch has no mirror and is not walked; Stats does not
// recover it. It takes no locks; the epoch guard keeps the walk well-defined
// against concurrent structural changes.
func (t *Table) Stats() TableStats {
	g := t.em.Enter()
	defer g.Exit()
	p := t.pool

	v := t.cache.view.Load()
	var walked, stash int64
	segments := 0
	v.eachSegment(func(d *segDesc) {
		segments++
		mir := d.mir.Load()
		if mir == nil {
			return
		}
		for bi := 0; bi < totalBuckets; bi++ {
			used := int64(slotsPerBucket - bucketFreeSlots(mir, bi))
			walked += used
			if bi >= normalBuckets {
				stash += used
			}
		}
	})

	lg := t.vlog.Stats()
	st := TableStats{
		Count:          t.count.Load(),
		GlobalDepth:    v.depth,
		Segments:       segments,
		SlotCapacity:   int64(segments) * slotsPerSegment,
		Records:        walked,
		StashRecords:   stash,
		AllocatedBytes: p.QuietLoadU64(rootAddr.Add(rootOffAllocNxt)) - allocStart,

		DirCacheHits:       t.cache.hits.Total(),
		DirCacheMisses:     t.cache.misses.Total(),
		DirCacheBytes:      8 * uint64(len(v.entries)),
		SegFilterBytes:     t.filters.bytes.Load(),
		SegFilterHits:      t.filters.hits.Total(),
		SegFilterMisses:    t.filters.misses.Total(),
		Splits:             t.met.splits.Total(),
		SplitStallNS:       int64(t.met.splitStallNS.Total()),
		EpochRetired:       t.em.Retired.Total(),
		EpochReclaimed:     t.em.Reclaimed.Total(),
		EpochPending:       t.em.Pending(),
		LogChunkBytes:      lg.ChunkBytes,
		LogLiveBytes:       lg.LiveBytes,
		LogFreeBytes:       lg.FreeBytes,
		LogFreeHits:        t.vlog.FreeHits.Total(),
		LogFreeMisses:      t.vlog.FreeMisses.Total(),
		RecoveryDirNS:      int64(t.met.recoveryNS[phaseDir].Total()),
		RecoverySegmentsNS: int64(t.met.recoveryNS[phaseSegments].Total()),
		RecoveryLogNS:      int64(t.met.recoveryNS[phaseLog].Total()),
		RecoveryMirrorsNS:  int64(t.met.recoveryNS[phaseMirrors].Total()),
	}
	if st.SlotCapacity > 0 {
		st.LoadFactor = float64(st.Count) / float64(st.SlotCapacity)
	}
	if walked > 0 {
		st.StashShare = float64(stash) / float64(walked)
	}
	return st
}
