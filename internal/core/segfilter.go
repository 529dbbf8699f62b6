package core

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"unsafe"

	"dash/internal/hashfn"
	"dash/internal/obs"
	"dash/internal/pmem"
)

// DRAM-resident per-segment mirror — the dirCache pattern pushed down one
// layer, and the runtime home of everything an operation *reads*. PM holds
// what recovery alone can answer — records, the (depth, pattern) claim — and
// is the only crash truth; but a running table looks none of it
// up there. Every segment carries a mirror of its buckets in ordinary Go
// memory:
//
//   - per bucket: the version lock (a seqlock word, odd while a writer holds
//     the bucket — it exists only here, bucket.go), the meta word (allocation
//     bitmap, derived from PM's non-zero word 0s, plus the home's stash
//     count, the mirror's own), both fingerprint words (the mirror's own) and
//     all 14 record word pairs, PM's words — for inline records the key
//     (recInlineWord) and the value, for indirect records the packed blob
//     address and the stored full key hash;
//   - per segment: the header's (local depth, pattern) claim, against which
//     a writer validates its route under its pair locks (Table.lockOwner) and
//     a negative lookup validates its miss, neither touching the PM
//     directory or segment header.
//
// Readers and writers run one probe (mirSegSearch → mirBucketSearch →
// mirRecMatch; a writer passes locked) and dereference PM only for record
// payloads that genuinely live there: an inline hit or any miss costs zero
// charged PM lines, an indirect candidate charges a read of its blob (key
// lines for a writer, the whole blob for a reader, who wants the value
// next). Writers take every placement decision here too — free slots,
// displacement victims, stash counts — and PM only takes their stores,
// each followed at once by the same store to the mirror. DRAM is therefore
// the runtime truth: a mirror word that differs from its PM word, or from
// what recovery would recompute from the records, is a bug that can misplace
// a record before any reader could notice, so nothing at run time
// second-guesses the mirror; the net is a check, Table.Verify.
//
// Coherence:
//
//   - write-through from every mutator (insert, delete, in-place and
//     copy-on-write update, displacement, stash spill and stash delete,
//     the split metadata bump, recovery's duplicate sweep), all
//     inside the bucket's lock with the version odd. No mutator has a
//     mirror-less form: the mirror is built before the first of them can
//     run. PM does not take the mirror's own words (bitmaps, fingerprints,
//     stash counts), nor a drop (segDrop, the publish's sweep of the moved
//     half; recovery's route filter), which clears slots in the mirror's
//     bitmap alone and leaves their records in PM, stale: records the
//     segment does not claim, which the next insert into the slot
//     overwrites (bucketInsertLocked);
//   - a split's sibling gets its mirror when it gets its block, and the
//     split's copy — the only writer an unpublished sibling has, so it
//     takes no lock and the versions stay even — writes every insert
//     through, so the sibling's mirror is complete the moment the publish
//     makes the segment reachable;
//   - lock-free readers validate against the seqlock: a scan is trusted only
//     if the bucket's version was even and unchanged across it;
//   - negatives additionally check the mirrored (depth, pattern) claim and
//     re-read the route afterwards. A claim that fails, or a route that
//     moved, means a publish narrowed the claim (and writes the view
//     through, under dirMu) since the probe routed: the reader waits it out
//     (cacheRepair) and retries, exactly like a writer whose claim failed;
//   - Create installs mirrors segment by segment; Open installs none — each
//     segment's mirror is built at its first-touch recovery (lazyrec.go),
//     one streaming read per segment off the restart critical path, and
//     every operation fetches the mirror through Table.mirror, which is
//     that first touch: no operation ever sees a segment without one. The
//     rebuild is what makes the locks vanish with the process that held
//     them: a new mirror's version words are zero.
//
// Layout. A mirror bucket is one 256-byte block, the PM bucket's own shape
// with the header where PM keeps its padding: the four header words (32 B)
// first, then the 14 record word pairs. A probe decides from the header alone
// which records to read (§4.2), and the header shares the block's first line
// with slots 0 and 1, slots 2..5 fill the adjacent line: a probe's header and
// the records it reads sit in one block, never on another page. The mirror is
// a pointer-free object of the 18 432-byte size class, whose objects start at
// multiples of 256 bytes, so every block is 256-aligned and lies within one
// 4 KiB page; the (depth, pattern) claim follows the last block. Only word and
// recWord know this layout.
const (
	mirBkVersion = 0 // the bucket's version lock: odd while held (bucket.go)
	mirBkMeta    = 1 // bits 0..13 the allocation bitmap; bits 16..23 the stash count (bucket.go)
	mirBkFPLo    = 2 // fingerprints of slots 0..7
	mirBkFPHi    = 3 // fingerprints of slots 8..13
	mirHdrWords  = 4 // header words per bucket

	mirBlockWords = mirHdrWords + 2*slotsPerBucket // a bucket's block: 32 words, 256 bytes
)

// segMirror is the DRAM mirror of one segment, permanent for its segment
// address: one block per bucket — its header words, then its record word
// pairs (a record's word 0 and word 1) — and the segment header's claim.
type segMirror struct {
	blocks  [totalBuckets][mirBlockWords]atomic.Uint64
	depth   atomic.Uint64 // mirror of the segment header's local depth
	pattern atomic.Uint64 // mirror of the segment header's pattern
}

// segMirrorBytes is the DRAM footprint one mirror adds, for Stats.
var segMirrorBytes = uint64(unsafe.Sizeof(segMirror{}))

func (m *segMirror) word(bi, off int) *atomic.Uint64 {
	return &m.blocks[bi][off]
}

func (m *segMirror) recWord(bi, slot, j int) *atomic.Uint64 {
	return &m.blocks[bi][mirHdrWords+2*slot+j]
}

// rec loads the two words of one mirrored record. The loads are individually
// atomic; a caller that needs the pair consistent holds the bucket's lock or
// validates its version.
func (m *segMirror) rec(bi, slot int) pmem.KV {
	return pmem.KV{Key: m.recWord(bi, slot, 0).Load(), Value: m.recWord(bi, slot, 1).Load()}
}

// setClaim writes the segment header's (depth, pattern) through to the
// mirror, next to the PM store it follows (segSetMeta).
func (m *segMirror) setClaim(depth uint8, pattern uint64) {
	m.depth.Store(uint64(depth))
	m.pattern.Store(pattern)
}

// mirClaims reports whether the segment's mirrored (depth, pattern) claims
// key ownership: the key's top `local depth` hash bits equal the pattern.
// Pure DRAM. For a caller holding the key's pair locks in the segment this is
// the whole route validation (Table.lockOwner): a publish narrows a segment's
// claim — PM header and mirror, one after the other — and flips the directory
// entries that implies only while holding all of the segment's bucket locks,
// segments are never reclaimed, and the published (depth, pattern) pairs
// partition the hash space, so the claiming segment is the key's directory
// owner. Lock-free callers may catch a publish half done and re-read the
// route after (searchOpt).
func mirClaims(mir *segMirror, parts hashfn.Parts) bool {
	return hashfn.SegmentIndex(parts.Hash, uint8(mir.depth.Load())) == mir.pattern.Load()
}

// segFilters is the mirrors' DRAM accounting plus their observability
// counters; the mirrors hang off the segment descriptors (dircache.go). All
// counters are goroutine-sharded obs.Counters registered in the table's
// obs.Registry (initObs), so the every-read increments cannot become a
// cross-thread hotspot.
type segFilters struct {
	bytes atomic.Uint64 // DRAM held by installed mirrors

	hits   *obs.Counter // reads served by a mirror (positive or validated miss)
	misses *obs.Counter // reads whose claim or route check failed: repaired, then retried

	stashProbes *obs.Counter // reads whose probe entered the stash: the home's stash count was non-zero

	lockContended *obs.Counter // bucket-lock acquisitions that found the bucket taken
}

// newMirror returns a zeroed mirror — every bucket unlocked — carrying the
// given header claim. Callers store it into the segment's descriptor before
// the segment is reachable (Create, a split's sibling before its copy,
// first-touch recovery inside its gate), so no writer can hold a previous
// object for the segment.
func (t *Table) newMirror(depth uint8, pattern uint64) *segMirror {
	mir := &segMirror{}
	mir.setClaim(depth, pattern)
	t.filters.bytes.Add(segMirrorBytes)
	return mir
}

// mirrorFillBucket copies one bucket's PM records into the mirror and
// derives its bitmap from them — a slot is used iff its word 0 is non-zero:
// recovery's build, under its first-touch gate, and the only PM read of a
// bucket there is. The fingerprints and stash counts PM does not keep are
// recomputed from the records afterwards, and the records the segment does
// not claim dropped (recoverSegment). The record lines are charged as one
// sequential read, so the per-word loads are quiet; neither padding is read.
func mirrorFillBucket(p *pmem.Pool, mir *segMirror, seg pmem.Addr, bi int) {
	ba := segBucket(seg, bi)
	p.TouchRead(recordAddr(ba, 0), slotsPerBucket*pmem.RecordSize)
	var m uint64
	for slot := 0; slot < slotsPerBucket; slot++ {
		ra := recordAddr(ba, slot)
		w0 := p.QuietLoadU64(ra)
		if w0 == 0 {
			continue
		}
		m = metaSetSlot(m, slot)
		mir.recWord(bi, slot, 0).Store(w0)
		mir.recWord(bi, slot, 1).Store(p.QuietLoadU64(ra.Add(8)))
	}
	mir.word(bi, mirBkMeta).Store(m)
}

// --- the probe: one for readers and writers ---

// mirBucketSearch scans one mirrored bucket for the probe's key and returns
// the matching record's words and slot (-1: none), plus the meta word the
// scan read, whose stash count tells the caller whether to go on into the
// stash. The header words alone pick the candidates — used slots whose
// fingerprint matches, in one compare (fpMatches) — and only their records
// are read.
//
// A reader (locked = false) does not take the bucket's lock: it loops until a
// scan completes under an unchanged even version (seqlock read), so what it
// returns is a consistent snapshot of the bucket. A writer (locked = true)
// holds the lock of the bucket — or, for a stash bucket, of the key's home
// bucket, which every mutation of that home's stash records takes — so the
// words that could match its key cannot move and it scans once. An indirect
// candidate's blob is verified during the scan: blob bytes are immutable from
// commit until epoch reclamation and the caller holds an epoch guard, so they
// cannot change or be reused underneath the read; a reader's match through a
// slot that mutated mid-scan is discarded by the version recheck.
func mirBucketSearch(vl *pmem.VarLog, mir *segMirror, bi int, pk *probeKey, locked bool) (kv pmem.KV, slot int, m uint64) {
	ver := mir.word(bi, mirBkVersion)
	for {
		v := ver.Load()
		if v&1 != 0 && !locked {
			runtime.Gosched()
			continue
		}
		m = mir.word(bi, mirBkMeta).Load()
		lo, hi := mir.word(bi, mirBkFPLo).Load(), mir.word(bi, mirBkFPHi).Load()
		kv, slot = pmem.KV{}, -1
		for c := fpMatches(lo, hi, pk.parts.FP) & m; c != 0; c &= c - 1 {
			s := bits.TrailingZeros64(c)
			if r := mir.rec(bi, s); mirRecMatch(vl, r, pk, locked) {
				kv, slot = r, s
				break
			}
		}
		if locked || ver.Load() == v {
			return
		}
	}
}

// mirSegSearch locates the probe's key within one segment: probe the
// candidate pair fingerprint-first, then — only when the home bucket's stash
// count is non-zero — both stash buckets, by their own fingerprints. Zero PM
// traffic except the blob read of an indirect candidate. The match is
// returned as the raw record words, which stay interpretable under the
// caller's epoch guard, and its place; stashed reports whether the probe
// entered the stash.
//
// A reader's bucket scans are individually version-stable; cross-bucket races
// are caught by searchOpt's route recheck. A writer (locked = true) holds the
// home pair's locks; the stash buckets it scans without theirs: records of
// this home cannot move (every stash mutation of this home takes the home
// lock), and records of other homes can never alias the key.
func mirSegSearch(vl *pmem.VarLog, mir *segMirror, pk *probeKey, locked bool) (kv pmem.KV, loc recLoc, found, stashed bool) {
	b, b2 := homePair(pk.parts)
	kv, slot, m := mirBucketSearch(vl, mir, b, pk, locked)
	if slot >= 0 {
		return kv, recLoc{bucket: b, slot: slot}, true, false
	}
	if kv, slot, _ = mirBucketSearch(vl, mir, b2, pk, locked); slot >= 0 {
		return kv, recLoc{bucket: b2, slot: slot}, true, false
	}
	if metaStashCount(m) == 0 {
		return pmem.KV{}, recLoc{}, false, false
	}
	for sb := normalBuckets; sb < totalBuckets; sb++ {
		if kv, slot, _ = mirBucketSearch(vl, mir, sb, pk, locked); slot >= 0 {
			return kv, recLoc{bucket: sb, slot: slot}, true, true
		}
	}
	return pmem.KV{}, recLoc{}, false, true
}
