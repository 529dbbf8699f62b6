package core

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"dash/internal/hashfn"
	"dash/internal/obs"
	"dash/internal/pmem"
)

// DRAM-resident per-segment filter mirror — the dirCache pattern (PR 3)
// pushed down one layer. The PM buckets remain the crash-consistent source
// of truth, but on the read path they are mostly metadata traffic: a lookup
// used to charge the home bucket's header line, one line per
// fingerprint-matched record, and often the neighbor bucket's lines too,
// before reaching the one thing that actually answers the query. All of
// that is reconstructible, so every segment carries a mirror of its buckets
// in ordinary Go memory:
//
//   - per bucket: a shadow of the seqlock version (odd while a locked
//     mutator is mid-flight), the meta word (allocation bitmap + overflow
//     tracking), both fingerprint words, and all 14 record word pairs —
//     for inline records the key and value themselves, for indirect
//     records the packed blob address and the stored full key hash;
//   - per segment: the header's (local depth, pattern) claim, which lets a
//     negative lookup validate its route without touching the PM directory
//     or segment header.
//
// Reads therefore probe entirely in DRAM and dereference PM only for
// record payloads that genuinely live there: an inline hit or any miss
// costs zero charged PM lines, and an indirect hit charges exactly one
// streaming read of its blob. Writers keep probing PM under their bucket
// locks (the mirror never becomes load-bearing for mutation decisions, so
// a poisoned mirror cannot corrupt PM) and write every mutation through to
// the mirror while the bucket's shadow version is odd.
//
// Coherence mirrors the dirCache discipline:
//
//   - write-through from every locked mutator (insert, delete, in-place
//     and copy-on-write update, displacement, stash spill and untrack,
//     the publish sweep, and the split metadata bump), all inside the
//     bucket's PM lock with the shadow version odd;
//   - a split's sibling gets its mirror when it gets its block, and the
//     split's copy — the only writer an unpublished sibling has, so it
//     takes no lock and the shadow versions stay even — writes every insert
//     through, so the sibling's mirror is complete the moment the publish
//     makes the segment reachable;
//   - lock-free readers validate against the shadow seqlock: a scan is
//     trusted only if the bucket's shadow version was even and unchanged
//     across it, which makes a stable mirror scan exactly as consistent
//     as the PM scan it replaces;
//   - negatives additionally check the mirrored (depth, pattern) claim and
//     re-read the route afterwards — the DRAM equivalent of
//     validateRoute. If the DRAM state cannot vouch for a miss, the
//     operation asks PM (validateRoute) and retries; if PM says the route
//     was fine, the mirror itself must be stale and is repaired in place
//     first (mirrorRepair, the cacheRepair of this layer);
//   - Create installs mirrors segment by segment; Open installs none — each
//     segment's mirror is built at its first-touch recovery (lazyrec.go),
//     one streaming read per segment off the restart critical path, and
//     every operation fetches the mirror through Table.mirror, which is
//     that first touch: no operation ever sees a segment without one;
//   - a hash-sampled cross-check (mirrorMaybeCheck) compares the home
//     bucket's mirror against PM on ~1/1024 of mirror-served reads, so
//     even a divergence with no detectable symptom (a poisoned bitmap
//     yielding silent false negatives) is found and healed while costing
//     well under one PM byte per operation.
const (
	mirBkVersion = 0 // shadow seqlock: odd while the bucket's PM lock is held
	mirBkMeta    = 1 // mirror of the PM meta word (bitmap + overflow tracking)
	mirBkFPLo    = 2 // mirror of fingerprint word 2
	mirBkFPHi    = 3 // mirror of fingerprint word 3 (incl. stash indexes)
	mirBkRecords = 4 // 2 words per slot: the record's word 0 and word 1
	mirBkWords   = mirBkRecords + 2*slotsPerBucket

	// mirrorSamplePeriod is the default sampling period of the PM
	// cross-check: one mirror-served read in this many (selected by key
	// hash, so the check adds no shared counter to the hot path) pays a
	// few PM lines to compare its home bucket against the mirror.
	mirrorSamplePeriod = 1024
)

// segMirror is the DRAM mirror of one segment. The object is permanent for
// its segment address: repairs rewrite it in place, so a writer that
// fetched the pointer before a repair keeps writing through to the object
// being healed — each bucket's PM lock serializes the two.
type segMirror struct {
	depth   atomic.Uint64 // mirror of the segment header's local depth
	pattern atomic.Uint64 // mirror of the segment header's pattern
	w       [totalBuckets * mirBkWords]atomic.Uint64
}

// segMirrorBytes is the DRAM footprint one mirror adds, for Stats.
var segMirrorBytes = uint64(unsafe.Sizeof(segMirror{}))

func (m *segMirror) word(bi, off int) *atomic.Uint64 {
	return &m.w[bi*mirBkWords+off]
}

func (m *segMirror) recWord(bi, slot, j int) *atomic.Uint64 {
	return &m.w[bi*mirBkWords+mirBkRecords+2*slot+j]
}

// mirClaims is segClaims against the mirrored header words: does this
// segment's (depth, pattern) claim the key? Pure DRAM.
func mirClaims(mir *segMirror, parts hashfn.Parts) bool {
	return hashfn.SegmentIndex(parts.Hash, uint8(mir.depth.Load())) == mir.pattern.Load()
}

// segFilters is the mirrors' DRAM accounting plus their observability
// counters; the mirrors hang off the segment descriptors (dircache.go). All
// counters are goroutine-sharded obs.Counters registered in the table's
// obs.Registry (initObs) under segfilter.* names, so the every-read
// increments cannot become a cross-thread hotspot.
type segFilters struct {
	bytes atomic.Uint64 // DRAM held by installed mirrors

	hits   *obs.Counter // reads served by a mirror (positive or validated miss)
	misses *obs.Counter // mirror probes DRAM could not vouch for: route revalidated against PM, then retried
	checks *obs.Counter // sampled mirror-vs-PM cross-checks run
	heals  *obs.Counter // mirrors rebuilt in place after a failed cross-check
}

// newMirror returns a zeroed mirror carrying the given header claim. Callers
// store it into the segment's descriptor before the segment is reachable
// (Create, a split's sibling before its copy, first-touch recovery inside
// its gate), so no writer can hold a previous object for the segment.
func (t *Table) newMirror(depth uint8, pattern uint64) *segMirror {
	mir := &segMirror{}
	mir.depth.Store(uint64(depth))
	mir.pattern.Store(pattern)
	t.filters.bytes.Add(segMirrorBytes)
	return mir
}

// mirrorFillBucket copies one bucket's PM words into the mirror. The
// caller owns the bucket (its PM lock, or single-threaded recovery) and
// has charged the bucket's header line; record lines are charged here as
// one streaming read up to the highest used slot, like every bucket scan.
func mirrorFillBucket(p *pmem.Pool, mir *segMirror, seg pmem.Addr, bi int) {
	ba := segBucket(seg, bi)
	m := p.QuietLoadU64(ba.Add(bkOffMeta))
	mir.word(bi, mirBkMeta).Store(m)
	mir.word(bi, mirBkFPLo).Store(p.QuietLoadU64(ba.Add(bkOffFPLo)))
	mir.word(bi, mirBkFPHi).Store(p.QuietLoadU64(ba.Add(bkOffFPHi)))
	touchRecordLines(p, ba, m)
	for slot := 0; slot < slotsPerBucket; slot++ {
		if !metaSlotUsed(m, slot) {
			mir.recWord(bi, slot, 0).Store(0)
			mir.recWord(bi, slot, 1).Store(0)
			continue
		}
		ra := recordAddr(ba, slot)
		mir.recWord(bi, slot, 0).Store(p.QuietLoadU64(ra))
		mir.recWord(bi, slot, 1).Store(p.QuietLoadU64(ra.Add(8)))
	}
}

// mirrorRepair reconciles seg's mirror with PM truth in place, bucket by
// bucket under each bucket's PM lock — cacheRepair one layer down. The
// header claim is copied first, under bucket 0's lock: a publish mutates
// the header only while holding every bucket lock, so holding any one of
// them excludes it.
func (t *Table) mirrorRepair(seg pmem.Addr, mir *segMirror) {
	p := t.pool
	t.filters.heals.Inc()
	t.fr.Record(obs.EvMirrorHeal, obs.TagNone, uint64(seg), 0)
	for bi := 0; bi < totalBuckets; bi++ {
		ba := segBucket(seg, bi)
		lockBucket(p, mir, ba, bi)
		if bi == 0 {
			mir.depth.Store(p.LoadU64(seg.Add(segOffDepth)))
			mir.pattern.Store(p.QuietLoadU64(seg.Add(segOffPattern)))
		}
		mirrorFillBucket(p, mir, seg, bi)
		unlockBucket(p, mir, ba, bi)
	}
}

// --- lock-free mirror probes (the read path) ---

// mirBucketSearch scans one mirrored bucket without taking its lock. It
// loops until a scan completes under an unchanged even shadow version
// (seqlock read), so the returned record words — and the meta/fingerprint
// words handed back for overflow-probing decisions — form a consistent
// snapshot of the bucket. An indirect candidate's blob is verified (and
// fully charged) during the scan: blob bytes are immutable from commit until
// epoch reclamation and the caller holds an epoch guard, so they cannot
// change or be reused underneath the read; a match through a slot that
// mutated mid-scan is discarded by the version recheck.
func mirBucketSearch(vl *pmem.VarLog, mir *segMirror, bi int, pk *probeKey) (kv pmem.KV, found bool, m, hi uint64) {
	ver := mir.word(bi, mirBkVersion)
	for {
		v := ver.Load()
		if v&1 != 0 {
			runtime.Gosched()
			continue
		}
		m = mir.word(bi, mirBkMeta).Load()
		lo := mir.word(bi, mirBkFPLo).Load()
		hi = mir.word(bi, mirBkFPHi).Load()
		kv, found = pmem.KV{}, false
		for slot := 0; slot < slotsPerBucket; slot++ {
			if !metaSlotUsed(m, slot) || fpGet(lo, hi, slot) != pk.parts.FP {
				continue
			}
			w0 := mir.recWord(bi, slot, 0).Load()
			w1 := mir.recWord(bi, slot, 1).Load()
			if r, ok := mirRecMatch(vl, w0, w1, pk); ok {
				kv, found = r, true
				break
			}
		}
		if ver.Load() == v {
			return
		}
	}
}

// mirSegSearch is the lock-free read path within one segment: probe the
// candidate pair fingerprint-first, then follow the home bucket's overflow
// metadata into the stash. Each bucket scan is individually version-stable;
// cross-bucket races are caught by searchOpt's route recheck. Zero PM
// traffic except the blob read of an indirect candidate. The match is
// returned as the raw record words, which stay interpretable under the
// caller's epoch guard.
func mirSegSearch(vl *pmem.VarLog, mir *segMirror, pk *probeKey) (pmem.KV, bool) {
	b := int(pk.parts.BucketIndex(bucketBits))
	b2 := (b + 1) % normalBuckets
	kv, found, m, hi := mirBucketSearch(vl, mir, b, pk)
	if found {
		return kv, true
	}
	if kv2, f2, _, _ := mirBucketSearch(vl, mir, b2, pk); f2 {
		return kv2, true
	}
	for i := 0; i < maxOvSlots; i++ {
		if !metaOvSlotUsed(m, i) || metaOvFP(m, i) != pk.parts.FP {
			continue
		}
		j := ovIdxGet(hi, i)
		if kv2, f2, _, _ := mirBucketSearch(vl, mir, normalBuckets+j, pk); f2 {
			return kv2, true
		}
	}
	if metaOvCount(m) > 0 {
		for j := 0; j < stashBuckets; j++ {
			if kv2, f2, _, _ := mirBucketSearch(vl, mir, normalBuckets+j, pk); f2 {
				return kv2, true
			}
		}
	}
	return pmem.KV{}, false
}

// --- sampled self-check ---

// mirrorMaybeCheck cross-checks the probe's home bucket against PM on a
// hash-selected sample of mirror-served reads (~1/mirrorSamplePeriod; the
// selection uses hash bits disjoint from the routing bits so the sampled
// set spans buckets). This is the safety net for divergence with no
// hot-path symptom: a mirror that silently lost a slot answers misses that
// nothing else would ever question. A detected mismatch heals the whole
// segment's mirror.
func (t *Table) mirrorMaybeCheck(seg pmem.Addr, mir *segMirror, pk *probeKey) {
	if (pk.parts.Hash>>20)&t.mirrorSampleMask != 0 {
		return
	}
	t.filters.checks.Inc()
	if !t.mirrorBucketMatchesPM(seg, mir, int(pk.parts.BucketIndex(bucketBits))) {
		t.mirrorRepair(seg, mir)
	}
}

// mirrorBucketMatchesPM optimistically compares one bucket's mirror with
// PM: both sides are snapshotted under stable (even, unchanged) versions,
// which proves they describe the same quiescent state and are directly
// comparable. Any racing writer — or an unlocked single-word record store,
// which the seqlock deliberately does not cover — voids the comparison and
// reports a (possibly spurious) match; only a doubly-stable mismatch is
// real. PM reads are charged like any probe: the version load pays for the
// header line, record lines are one streaming touch.
func (t *Table) mirrorBucketMatchesPM(seg pmem.Addr, mir *segMirror, bi int) bool {
	p := t.pool
	ba := segBucket(seg, bi)
	va := ba.Add(bkOffVersion)
	pv := p.LoadU64(va)
	mv := mir.word(bi, mirBkVersion).Load()
	if pv&1 != 0 || mv&1 != 0 {
		return true
	}
	m := p.QuietLoadU64(ba.Add(bkOffMeta))
	lo := p.QuietLoadU64(ba.Add(bkOffFPLo))
	hi := p.QuietLoadU64(ba.Add(bkOffFPHi))
	ok := m == mir.word(bi, mirBkMeta).Load() &&
		lo == mir.word(bi, mirBkFPLo).Load() &&
		hi == mir.word(bi, mirBkFPHi).Load()
	if ok {
		touchRecordLines(p, ba, m)
		for slot := 0; slot < slotsPerBucket && ok; slot++ {
			if !metaSlotUsed(m, slot) {
				continue
			}
			ra := recordAddr(ba, slot)
			ok = p.QuietLoadU64(ra) == mir.recWord(bi, slot, 0).Load() &&
				p.QuietLoadU64(ra.Add(8)) == mir.recWord(bi, slot, 1).Load()
		}
	}
	if p.QuietLoadU64(va) != pv || mir.word(bi, mirBkVersion).Load() != mv {
		return true // racing writer: nothing provable either way
	}
	return ok
}

// mirrorVerifySeg compares one segment's whole mirror against PM with
// quiet loads — the quiescent-state debugging/test oracle behind the
// coherence tests. Returns the number of mismatching buckets (header
// claims count as bucket 0). Only meaningful while no writer runs.
func (t *Table) mirrorVerifySeg(d *segDesc) int {
	p := t.pool
	seg, mir := d.seg, d.mir.Load()
	if mir == nil {
		return totalBuckets
	}
	bad := 0
	if mir.depth.Load() != p.QuietLoadU64(seg.Add(segOffDepth)) ||
		mir.pattern.Load() != p.QuietLoadU64(seg.Add(segOffPattern)) {
		bad++
	}
	for bi := 0; bi < totalBuckets; bi++ {
		ba := segBucket(seg, bi)
		m := p.QuietLoadU64(ba.Add(bkOffMeta))
		ok := m == mir.word(bi, mirBkMeta).Load() &&
			p.QuietLoadU64(ba.Add(bkOffFPLo)) == mir.word(bi, mirBkFPLo).Load() &&
			p.QuietLoadU64(ba.Add(bkOffFPHi)) == mir.word(bi, mirBkFPHi).Load()
		for slot := 0; slot < slotsPerBucket && ok; slot++ {
			if !metaSlotUsed(m, slot) {
				continue
			}
			ra := recordAddr(ba, slot)
			ok = p.QuietLoadU64(ra) == mir.recWord(bi, slot, 0).Load() &&
				p.QuietLoadU64(ra.Add(8)) == mir.recWord(bi, slot, 1).Load()
		}
		if !ok {
			bad++
		}
	}
	return bad
}

// mirrorVerifyAll is mirrorVerifySeg over every directory-reachable
// segment; the quiescent coherence oracle for tests.
func (t *Table) mirrorVerifyAll() int {
	bad := 0
	t.cache.view.Load().eachSegment(func(d *segDesc) { bad += t.mirrorVerifySeg(d) })
	return bad
}
