package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"dash/internal/hashfn"
	"dash/internal/obs"
	"dash/internal/pmem"
)

// Lazy per-segment recovery (§4.6): Open does only the O(directory) work —
// entry claims, segment metadata fixes, chunk-chain validation, dirCache
// rebuild — and defers everything O(data) to first touch. Every
// directory-reachable segment's descriptor starts "unrecovered"; the first
// operation routed to it wins a CAS gate (the split-claim idiom) and
// runs the per-segment reconcile — mirror build, route filter with the
// fingerprints and stash counts PM does not keep, duplicate sweep, count
// re-derivation — while losers spin the winner out.
// The record-log sweep runs as an incremental background pass once every
// segment has recovered (it needs the complete reference set), free-listing
// dead blobs in small batches under epoch guards.
//
// After a *clean* shutdown (Close persisted the root's clean marker) the
// duplicate sweep and the count derivation are skipped — the image holds no
// duplicate, and the root holds the count — but first touch still installs
// the segment's mirror, drops by route the records splits moved away (a
// split removes them from the old segment's mirror only, so every image,
// clean or not, can hold them), recomputes fingerprints and stash counts,
// and contributes its blob references,
// and the background pass still runs to rebuild the record log's DRAM free
// list.

// A descriptor's first-touch claim (segDesc.rec): who recovers the segment,
// and whether that is over. Done is the zero value: segments created after
// Open (split siblings) are born recovered. Operations pass the gate by
// fetching the mirror recovery stores last (Table.mirror), and come here
// only when there is none yet.
const (
	segRecDone uint32 = iota
	segRecPending
	segRecInFlight
)

// lazyRecovery is the DRAM side table describing what Open deferred. The
// Table drops its pointer once the background pass finishes, restoring the
// ungated hot path.
type lazyRecovery struct {
	clean  bool        // clean-shutdown image: skip the duplicate sweep and count derivation
	g      uint8       // global depth at Open
	fixed  []pmem.Addr // reconciled directory image at Open, for misroute checks
	openAt int64       // obs.Now() at Open, base of time-to-fully-recovered

	// order lists every directory-reachable segment at Open, each gated
	// until its first touch: the deterministic iteration for driveRecovery.
	order     []*segDesc
	remaining atomic.Int64

	// refs accumulates the blob addresses referenced by recovered segments'
	// slots, captured inside each segment's exclusive gate. Complete once
	// remaining hits zero; the background sweep then reads it without the
	// mutex (every insert happened-before the sweep's state observations).
	refMu sync.Mutex
	refs  map[pmem.Addr]struct{}

	// drvMu serializes driveRecovery (the background goroutine, RecoverAll
	// callers, Close). done flips after the log sweep completes.
	drvMu sync.Mutex
	done  atomic.Bool
}

// disableBackgroundRecovery, when set, stops Open from spawning the
// background recovery driver — tests that must observe segments in their
// unrecovered state (first-touch races, mid-sweep crashes) set it and drive
// recovery by hand. Package-private test knob, not part of the API.
var disableBackgroundRecovery atomic.Bool

// recoverLazy reconciles the table image with O(directory) work only. The
// directory is the source of truth: every segment's true coverage — and from
// it, its local depth and pattern — is re-derived by letting deeper segments
// claim their canonical entry ranges first. This completes a partially
// published split (the new segment was fully durable before the first entry
// flip) and rolls an unpublished one back to a harmless leak; split markers
// are cleared in the same per-segment pass (a small constant per segment, so
// still O(directory)). Bucket locks need no pass at all: they live in the
// mirrors, which died with the process that held them. The O(data) work —
// mirror builds, the route filter, dedupe, count derivation, the record-log
// sweep — is deferred: recoverLazy builds the lazyRecovery side table and returns.
// After a clean shutdown the image needs none of that reconciliation (the
// passes are cheap no-ops, run anyway for their validation) and the count
// comes straight from the root.
func (t *Table) recoverLazy(clean bool) error {
	p := t.pool
	rstart := obs.Now()
	dir := pmem.Addr(p.LoadU64(rootAddr.Add(rootOffDir)))
	if dir.IsNull() {
		return ErrNotATable
	}
	// Every block address the image names is checked against the persisted
	// frontier (Open checked it against the pool) before it is dereferenced
	// or sized for: a corrupt word fails Open, it does not panic it or make
	// it allocate for a directory no pool could hold.
	frontier := t.allocNext
	isBlock := func(a pmem.Addr, size uint64) bool {
		return uint64(a)%allocAlign == 0 && uint64(a) >= allocStart && uint64(a) <= frontier && size <= frontier-uint64(a)
	}
	if !isBlock(dir, dirHeaderSize) {
		return fmt.Errorf("core: corrupt image: root names directory %#x, not a block in [%#x, %#x)", dir, allocStart, frontier)
	}
	g := dirDepth(p, dir)
	if g > 56 || !isBlock(dir, dirSize(g)) {
		return fmt.Errorf("core: corrupt image: directory %#x of depth %d overruns the allocation frontier %#x", dir, g, frontier)
	}
	n := uint64(1) << g

	type segInfo struct {
		addr pmem.Addr
		l    uint8
		pat  uint64
	}
	entries := make([]pmem.Addr, n)
	var segs []segInfo
	seen := make(map[pmem.Addr]bool)
	for i := uint64(0); i < n; i++ {
		e := dirLoadEntry(p, dir, i)
		entries[i] = e
		if !isBlock(e, segmentSize) {
			return fmt.Errorf("core: corrupt image: directory entry %d names %#x, not a segment in [%#x, %#x)", i, e, allocStart, frontier)
		}
		if !seen[e] {
			seen[e] = true
			l, pat := segMeta(p, e)
			if l > g || pat>>l != 0 {
				return fmt.Errorf("core: recovery: segment %#x claims (depth %d, pattern %#x) under directory depth %d", e, l, pat, g)
			}
			segs = append(segs, segInfo{addr: e, l: l, pat: pat})
		}
	}

	// Deepest-first claiming: a new segment (depth L+1) takes its canonical
	// half before the stale old segment (still claiming depth L) takes the
	// remainder, which completes any half-flipped publish.
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].l > segs[j].l })
	fixed := make([]pmem.Addr, n)
	for _, s := range segs {
		start, span := dirCoverage(g, s.l, s.pat)
		for i := start; i < start+span; i++ {
			if fixed[i].IsNull() {
				fixed[i] = s.addr
			}
		}
	}
	changed := false
	for i := uint64(0); i < n; i++ {
		if fixed[i].IsNull() {
			return fmt.Errorf("core: recovery: directory entry %d unclaimed", i)
		}
		if fixed[i] != entries[i] {
			dirStoreEntry(p, dir, i, fixed[i])
			changed = true
		}
	}
	if changed {
		p.Persist(dirEntryAddr(dir, 0), 8*n)
	}

	// Re-derive each segment's (depth, pattern) from its actual coverage.
	// Coverage ranges are contiguous by construction, so one pass over fixed
	// collects first/count for every segment.
	type cover struct{ first, count uint64 }
	covers := make(map[pmem.Addr]*cover, len(segs))
	for i := uint64(0); i < n; i++ {
		if c := covers[fixed[i]]; c != nil {
			c.count++
		} else {
			covers[fixed[i]] = &cover{first: i, count: 1}
		}
	}
	for _, s := range segs {
		first, count := uint64(0), uint64(0)
		if c := covers[s.addr]; c != nil {
			first, count = c.first, c.count
		}
		if count == 0 || count&(count-1) != 0 {
			return fmt.Errorf("core: recovery: segment %#x covers %d entries", s.addr, count)
		}
		l := g - uint8(bits.TrailingZeros64(count))
		pat := first >> (g - l)
		if l != s.l || pat != s.pat {
			segSetMeta(p, s.addr, l, pat)
		}
		// Clear any split-progress marker, finishing or rolling back the
		// half-migrated split it describes. If the marker's sibling made it
		// into the directory, the claiming pass above already completed the
		// flips and metadata and the route filter at first touch drops the moved
		// records' leftovers — the split rolls forward. Otherwise the
		// sibling was never published: the directory still routes every key
		// to this segment (which kept all its records; migration only
		// reads), so the marker clear rolls the split back and the sibling
		// block is leaked, like an unpublished block under the old
		// protocol.
		if p.LoadU64(s.addr.Add(segOffSplit)) != 0 {
			p.StoreU64(s.addr.Add(segOffSplit), 0)
			p.Persist(s.addr.Add(segOffSplit), 8)
		}
	}

	// Validate the record log's chunk chain and snapshot the sweep frontier
	// (O(#chunks)); the blob-level sweep itself is the background pass. Then
	// mirror the reconciled directory into the DRAM cache — the last
	// O(directory) step — and build the deferred-work side table.
	if clean {
		t.count.Store(int64(p.LoadU64(rootAddr.Add(rootOffCount))))
	}
	if err := t.vlog.RecoverChunks(); err != nil {
		return err
	}
	t.cacheRebuild()

	lr := &lazyRecovery{
		clean:  clean,
		g:      g,
		fixed:  fixed,
		openAt: rstart,
		order:  make([]*segDesc, 0, len(segs)),
		refs:   make(map[pmem.Addr]struct{}),
	}
	for _, s := range segs {
		d := t.cache.descs[s.addr]
		d.rec.Store(segRecPending)
		lr.order = append(lr.order, d)
	}
	lr.remaining.Store(int64(len(segs)))
	t.lazy.Store(lr)
	end := obs.Now()
	t.recordRecoveryPhase(phaseDir, obs.PhaseDirectory, rstart, end)
	t.met.recoveryOpenNS.Add(uint64(end - rstart))
	return nil
}

// mirror returns the filter mirror of a segment an operation routed to, and
// is the first-touch gate: the mirror is the last thing recoverSegment
// publishes, so a descriptor that has one is recovered, and one that has none
// is recovered here (or waited for) before anything of the segment is
// trusted. Never nil — segDesc.mir has the invariant. Kept small enough to
// inline: on the op paths a hit is one load of a line they read anyway.
func (t *Table) mirror(d *segDesc) (mir *segMirror) {
	if mir = d.mir.Load(); mir == nil {
		mir = t.firstTouch(d)
	}
	return
}

// firstTouch is the once-per-segment gate: the CAS winner recovers the
// segment (a gated descriptor implies t.lazy is still set), losers wait it
// out (no locks held at the call sites, so spinning is deadlock-free — the
// same shape as split's claim). Either way the segment's mirror exists on
// return; a descriptor with no mirror and no recovery to wait for is a bug.
func (t *Table) firstTouch(d *segDesc) *segMirror {
	if d.rec.CompareAndSwap(segRecPending, segRecInFlight) {
		lr := t.lazy.Load()
		t.recoverSegment(lr, d)
		d.rec.Store(segRecDone)
		lr.remaining.Add(-1)
	} else {
		for d.rec.Load() != segRecDone {
			runtime.Gosched()
		}
	}
	mir := d.mir.Load()
	if mir == nil {
		panic("core: recovered segment has no mirror")
	}
	return mir
}

// recoverSegment runs the deferred per-segment work under the caller's
// exclusive gate: no operation can touch the segment's buckets until the
// gate releases, so it runs single-threaded exactly as eager recovery did. A
// segment cannot split before it recovers (every mutator gates first), so
// lr.fixed/lr.g still describe its coverage.
//
// The mirror comes first — one streaming pass over the segment's PM lines,
// the only PM reads recovery makes of it — because the sweeps are mutators
// like any other: they read the mirror and store to both. It goes into the
// descriptor last: storing it is what opens the segment to operations
// (Table.mirror).
//
// One pass over the records then does, from each record's hash, what PM
// does not keep. The route filter, on every image, drops each record the
// directory routes elsewhere — the moved half a split left in PM, and on a
// crash image a half-published split's leftovers — from the mirror alone,
// as the publish does (segDrop), storing nothing. Every record it keeps gets
// its fingerprint and, in the stash, a unit of its home bucket's stash
// count: recounted from the committed records, each home's count is exactly
// the stash records that survive homed there. The duplicate sweep, which
// only a crash can make work for, persists its deletes and decrements the
// count as every delete does.
func (t *Table) recoverSegment(lr *lazyRecovery, d *segDesc) {
	p, seg := t.pool, d.seg
	start := obs.Now()
	l, pat := segMeta(p, seg)
	mir := t.newMirror(l, pat)
	for bi := 0; bi < totalBuckets; bi++ {
		mirrorFillBucket(p, mir, seg, bi)
	}
	mirDone := obs.Now()

	// Stash buckets come last, so every home's meta word is final but for
	// the count they add to it.
	for bi := 0; bi < totalBuckets; bi++ {
		m := mir.word(bi, mirBkMeta).Load()
		var lo, hi, misrouted uint64
		for used := m; used != 0; used &= used - 1 {
			slot := bits.TrailingZeros64(used)
			parts := recSplitParts(mir.rec(bi, slot), t.seed)
			if lr.fixed[parts.DirIndex(lr.g)] != seg {
				misrouted |= 1 << uint(slot)
				continue
			}
			lo, hi = fpSet(lo, hi, slot, parts.FP)
			if bi >= normalBuckets {
				bucketAddStash(mir, int(parts.BucketIndex(bucketBits)), +1)
			}
		}
		mir.word(bi, mirBkFPLo).Store(lo)
		mir.word(bi, mirBkFPHi).Store(hi)
		mir.word(bi, mirBkMeta).Store(m &^ misrouted)
	}
	if !lr.clean {
		t.dedupeSegment(seg, mir)
		t.count.Add(int64(segCount(mir)))
	}
	sweepDone := obs.Now()
	// Blob references of the records that survived the sweeps.
	var refs []pmem.Addr
	for bi := 0; bi < totalBuckets; bi++ {
		m := mir.word(bi, mirBkMeta).Load()
		for slot := 0; slot < slotsPerBucket; slot++ {
			if !metaSlotUsed(m, slot) {
				continue
			}
			if w0 := mir.recWord(bi, slot, 0).Load(); recIsIndirect(w0) {
				refs = append(refs, recBlobAddr(w0))
			}
		}
	}
	if len(refs) > 0 {
		lr.refMu.Lock()
		for _, a := range refs {
			lr.refs[a] = struct{}{}
		}
		lr.refMu.Unlock()
	}
	d.mir.Store(mir)
	end := obs.Now()

	// Phase meters accumulate across first touches (the lazy analogue of the
	// eager one-shot phases); the per-segment latency histogram is what the
	// tail pays at first touch.
	t.met.recoveryNS[phaseSegments].Add(uint64(sweepDone - mirDone))
	t.met.recoveryNS[phaseMirrors].Add(uint64(mirDone - start + end - sweepDone))
	t.met.lazySegNS.Record(end - start)
	t.met.lazySegs.Inc()
	t.fr.RecordAt(start, obs.EvSegRecover, obs.PhaseSegments, uint64(seg), uint64(end-start))
}

// dedupeSegment removes all but the first copy of any key appearing twice
// in the segment, comparing *canonical* keys (an inline record's 8-byte
// little-endian key, an indirect record's blob key bytes): an interrupted
// displacement duplicates a record verbatim, but an interrupted
// representation-converting update leaves the same user key once inline
// and once as a blob pointer. segSweep's scan order matches lookup order
// (normal buckets ascending, then stash), so the surviving copy is the one
// lookups would return. This is the one recovery pass that dereferences
// blobs — recovery is already O(data) — and it dereferences none the log
// does not hold (pmem.VarLog.Holds): a slot naming anything else is corrupt,
// and is deleted like a duplicate and counted (recovery.dangling_slots).
func (t *Table) dedupeSegment(seg pmem.Addr, mir *segMirror) {
	seenKeys := make(map[string]bool)
	var buf [8]byte
	t.segSweep(mir, seg, func(_ hashfn.Parts, kv pmem.KV) bool {
		var k string
		if recIsIndirect(kv.Key) {
			a := recBlobAddr(kv.Key)
			if !t.vlog.Holds(a) {
				t.met.danglingSlots.Inc()
				return true
			}
			k = string(t.vlog.KeyBytes(a))
		} else {
			binary.LittleEndian.PutUint64(buf[:], recWordKey(kv.Key))
			k = string(buf[:])
		}
		if seenKeys[k] {
			return true
		}
		seenKeys[k] = true
		return false
	})
}

// RecoverAll completes recovery synchronously: recovers every still-pending
// segment, then runs the record-log sweep to the end. Idempotent; a no-op on
// a fully recovered table. Exposed so callers that need exact global state
// (Count, Close, benchmarks measuring time-to-fully-recovered) can force the
// background work to happen now.
func (t *Table) RecoverAll() {
	if lr := t.lazy.Load(); lr != nil {
		t.driveRecovery(lr)
	}
}

// sweepStepBlobs bounds how many blobs one background sweep step classifies
// under a single epoch guard; between steps the driver yields so foreground
// operations never wait on more than one batch.
const sweepStepBlobs = 256

// driveRecovery is the incremental recovery driver: first-touch every
// pending segment (yielding between segments), then sweep the record log in
// bounded steps under epoch guards, free-listing blobs that existed at Open
// but no recovered segment references. Serialized by drvMu; both the
// background goroutine and synchronous RecoverAll callers funnel here.
func (t *Table) driveRecovery(lr *lazyRecovery) {
	lr.drvMu.Lock()
	defer lr.drvMu.Unlock()
	if lr.done.Load() {
		return
	}
	for _, d := range lr.order {
		if d.rec.Load() != segRecDone {
			t.firstTouch(d)
			runtime.Gosched()
		}
	}

	// Every segment is recovered, so lr.refs is complete and frozen: each
	// insert into it happened-before the done-state load above. The sweep is
	// bounded to blobs that existed at Open (RecoverChunks snapshotted the
	// frontier), so a referenced blob freed-and-reused concurrently is
	// simply skipped — never double-freed, never handed out twice.
	lstart := obs.Now()
	sweep := t.vlog.SweepStart()
	for {
		g := t.em.Enter()
		done, freed := sweep.Step(sweepStepBlobs, lr.refs)
		g.Exit()
		if freed > 0 {
			t.met.lazySweepFreed.Add(uint64(freed))
		}
		if done {
			break
		}
		runtime.Gosched()
	}
	lend := obs.Now()
	t.met.recoveryNS[phaseLog].Add(uint64(lend - lstart))
	t.fr.RecordAt(lstart, obs.EvRecovery, obs.PhaseLog, 0, uint64(lend-lstart))
	// Summarize the accumulated lazy phases into the trace (the eager
	// protocol's one-shot phase events), and report the total as the summed
	// phase work — the comparable of the old eager total, while FullNS is
	// the Open→done wall time foreground traffic actually experienced.
	segNS, mirNS := t.met.recoveryNS[phaseSegments].Total(), t.met.recoveryNS[phaseMirrors].Total()
	t.fr.RecordAt(lend, obs.EvRecovery, obs.PhaseSegments, 0, segNS)
	t.fr.RecordAt(lend, obs.EvRecovery, obs.PhaseMirrors, 0, mirNS)
	t.met.recoveryTotalNS.Add(t.met.recoveryNS[phaseDir].Total() + segNS + mirNS + t.met.recoveryNS[phaseLog].Total())
	t.met.recoveryFullNS.Add(uint64(lend - lr.openAt))
	lr.done.Store(true)
	t.lazy.Store(nil)
}

// recoveryPending reports how many segments still await first touch (0 on a
// fully recovered or freshly created table).
func (t *Table) recoveryPending() int64 {
	if lr := t.lazy.Load(); lr != nil {
		return lr.remaining.Load()
	}
	return 0
}
