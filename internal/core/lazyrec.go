package core

import (
	"bytes"
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
// one pass of entry claims over the directory, segment metadata fixes,
// chunk-chain validation, the view installed from the reconciled entries —
// and defers everything O(data) to first touch. Every
// directory-reachable segment's descriptor starts without a mirror; the
// first operation routed to it takes the segment's owner lock
// (segDesc.owner, the lock a split holds) and runs the per-segment
// reconcile — mirror build, then one pass over the records: route filter,
// fingerprints and stash counts PM does not keep, corrupt and duplicate
// deletes, count re-derivation — while later arrivals block on the lock and
// find the mirror when they get it. The record-log sweep runs as an
// incremental background pass once every segment has recovered (it needs the
// complete reference set), free-listing dead blobs in small batches under
// epoch guards.
//
// After a *clean* shutdown (Close persisted the root's clean marker) the
// duplicate and blob checks and the count derivation are skipped — the image
// holds no duplicate, and the root holds the count — but first touch still
// installs the segment's mirror, drops by route the records splits moved
// away (a split removes them from the old segment's mirror only, so every
// image, clean or not, can hold them), deletes a record outside its home
// pair, recomputes fingerprints and stash counts, and contributes its blob
// references, and the background pass still runs to rebuild the record
// log's DRAM free list.

// lazyRecovery is the DRAM side table describing what Open deferred. The
// Table drops its pointer once the background pass finishes, restoring the
// ungated hot path.
type lazyRecovery struct {
	clean  bool  // clean-shutdown image: skip the duplicate and blob checks and count derivation
	openAt int64 // obs.Now() at Open, base of time-to-fully-recovered

	// order lists every directory-reachable segment at Open in directory
	// order (the descriptors setView made), each without a mirror until its
	// first touch: the deterministic iteration for driveRecovery.
	order     []*segDesc
	remaining atomic.Int64

	// refs accumulates the blob addresses referenced by recovered segments'
	// slots, captured under each segment's owner lock. Complete once
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
// claim their canonical entry ranges first, in one pass that reads each
// directory entry once and hands the reconciled entries to setView, so the
// view needs no second read of the directory. This completes a partially
// published split (the new segment was fully durable before the first entry
// flip) and leaves an unpublished one a harmless leak: no entry names its
// sibling. Bucket and owner locks need no pass at all: they live in DRAM,
// which died with the process that held them. The O(data) work —
// mirror builds, the route filter, duplicate deletes, count derivation, the
// record-log sweep — is deferred: recoverLazy builds the lazyRecovery side
// table and returns.
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

	// A segment's coverage is what it claims in its deepest-first turn below:
	// its first entry, their count, and whether the run had a gap.
	type segInfo struct {
		addr         pmem.Addr
		l            uint8
		pat          uint64
		first, count uint64
		gap          bool
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
	// remainder, which completes any half-flipped publish. A segment claims
	// entries only in its own turn, so its coverage is complete when the
	// turn ends.
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].l > segs[j].l })
	fixed := make([]pmem.Addr, n)
	for k := range segs {
		s := &segs[k]
		start, span := dirCoverage(g, s.l, s.pat)
		for i := start; i < start+span; i++ {
			if !fixed[i].IsNull() {
				continue
			}
			if s.count == 0 {
				s.first = i
			}
			s.gap = s.gap || i != s.first+s.count
			fixed[i] = s.addr
			s.count++
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

	// Re-derive each segment's (depth, pattern) from its coverage, which must
	// be the one aligned range its count and first entry name: a corrupt
	// image can scatter it, and no claim describes that.
	for _, s := range segs {
		if s.count == 0 || s.count&(s.count-1) != 0 {
			return fmt.Errorf("core: recovery: segment %#x covers %d entries", s.addr, s.count)
		}
		l := g - uint8(bits.TrailingZeros64(s.count))
		pat := s.first >> (g - l)
		if s.gap || s.first%s.count != 0 {
			return fmt.Errorf("core: recovery: segment %#x covers %d entries from %d, not the range (depth %d, pattern %#x)", s.addr, s.count, s.first, l, pat)
		}
		if l != s.l || pat != s.pat {
			segSetMeta(p, s.addr, l, pat)
		}
	}

	// Validate the record log's chunk chain and snapshot the sweep frontier
	// (O(#chunks)); the blob-level sweep itself is the background pass. Then
	// install the view from the reconciled entries — it reads no PM — and
	// build the deferred-work side table over the segments it names.
	if clean {
		t.count.Add(int64(p.LoadU64(rootAddr.Add(rootOffCount)))) // onto a new table's 0
	}
	if err := t.vlog.RecoverChunks(); err != nil {
		return err
	}
	lr := &lazyRecovery{
		clean:  clean,
		openAt: rstart,
		order:  t.setView(dir, g, func(i uint64) pmem.Addr { return fixed[i] }),
		refs:   make(map[pmem.Addr]struct{}),
	}
	lr.remaining.Store(int64(len(lr.order)))
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

// firstTouch is the once-per-segment gate: under the segment's owner lock
// the first caller recovers the segment (a mirror-less descriptor implies
// t.lazy is still set) and later ones find its mirror. The call sites hold
// no lock, so blocking here cannot deadlock.
func (t *Table) firstTouch(d *segDesc) *segMirror {
	d.owner.Lock()
	defer d.owner.Unlock()
	if mir := d.mir.Load(); mir != nil {
		return mir
	}
	lr := t.lazy.Load()
	t.recoverSegment(lr, d)
	lr.remaining.Add(-1)
	return d.mir.Load()
}

// recoverSegment runs the deferred per-segment work under the segment's
// owner lock: no operation can touch the segment's buckets before the mirror
// is stored, so it runs single-threaded exactly as eager recovery did. A
// segment cannot split before it recovers (every mutator gates first), so
// the claim recoverLazy reconciled into its header is still its coverage.
//
// The mirror comes first — one streaming pass over the segment's PM lines,
// the only PM reads recovery makes of it but for blob keys. It goes into the
// descriptor last: storing it is what opens the segment to operations
// (Table.mirror). One pass over the records, bucket then slot, stash buckets
// last, then does from each record's hash what PM does not keep. On every
// image it drops from the mirror alone, as the publish does (segDrop), each
// record the segment's claim — exactly its coverage — does not cover: the
// moved half a split left in PM, and on a crash image a half-published
// split's leftovers. It deletes a corrupt record, counted in
// recovery.corrupt_slots — on every image a normal-bucket record outside its
// home pair, which no probe reaches, and on a crash image an indirect record
// blobCorrupt rejects — and on a crash image a duplicate (keptCopy), the
// later copy an interrupted displacement or converting update leaves. Each
// delete is a zero word 0 persisted in one line. Every record it keeps gets
// its fingerprint, in the stash a unit of its home bucket's stash count —
// final but for that count by then — and, if indirect, a blob reference for
// the record-log sweep. A crash image's count is the records kept; a clean
// image restored it from the root and gives one back per corrupt record.
func (t *Table) recoverSegment(lr *lazyRecovery, d *segDesc) {
	p, seg, crash := t.pool, d.seg, !lr.clean
	start := obs.Now()
	l, pat := segMeta(p, seg)
	mir := t.newMirror(l, pat)
	mirrorFill(p, mir, seg)
	mirDone := obs.Now()

	var refs []pmem.Addr
	var kept, corrupt int64
	for bi := 0; bi < totalBuckets; bi++ {
		m := mir.word(bi, mirBkMeta).Load()
		var lo, hi uint64
		for used := m; used != 0; used &= used - 1 {
			slot := bits.TrailingZeros64(used)
			kv := mir.rec(bi, slot)
			parts := recSplitParts(kv, t.seed)
			if hashfn.SegmentIndex(parts.Hash, l) != pat {
				m = metaClearSlot(m, slot)
				continue
			}
			// Outside the home pair: one predictable compare, not two on
			// which of the pair holds the record.
			b, _ := homePair(parts)
			bad := bi < normalBuckets && (bi-b)&(normalBuckets-1) > 1 || crash && t.blobCorrupt(kv)
			if bad || crash && t.keptCopy(mir, bi, slot, m, lo, hi, kv, parts) {
				ra := slotAddr(seg, bi, slot)
				p.StoreU64(ra, 0)
				p.Persist(ra, 8)
				m = metaClearSlot(m, slot)
				if bad {
					corrupt++
				}
				continue
			}
			lo, hi = fpSet(lo, hi, slot, parts.FP)
			if bi >= normalBuckets {
				bucketAddStash(mir, int(parts.BucketIndex(bucketBits)), +1)
			}
			if recIsIndirect(kv.Key) {
				refs = append(refs, recBlobAddr(kv.Key))
			}
			kept++
		}
		mir.word(bi, mirBkFPLo).Store(lo)
		mir.word(bi, mirBkFPHi).Store(hi)
		mir.word(bi, mirBkMeta).Store(m)
	}
	t.met.corruptSlots.Add(uint64(corrupt))
	if crash {
		t.count.Add(kept)
	} else {
		t.count.Add(-corrupt)
	}
	passDone := obs.Now()
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
	t.met.recoveryNS[phaseSegments].Add(uint64(passDone - mirDone))
	t.met.recoveryNS[phaseMirrors].Add(uint64(mirDone - start + end - passDone))
	t.met.lazySegNS.Record(end - start)
	t.met.lazySegs.Inc()
	t.fr.RecordAt(start, obs.EvSegRecover, obs.PhaseSegments, uint64(seg), uint64(end-start))
}

// blobCorrupt reports whether kv is an indirect record naming no blob the
// log holds (pmem.VarLog.Holds, asked before the blob is read) or a blob
// whose key does not hash to the stored hash or fit the length class: a
// record no probe could match, and one that would break keptCopy's premise.
func (t *Table) blobCorrupt(kv pmem.KV) bool {
	if !recIsIndirect(kv.Key) {
		return false
	}
	a := recBlobAddr(kv.Key)
	if !t.vlog.Holds(a) {
		return true
	}
	key := t.vlog.KeyBytes(a)
	return hashfn.Hash64(key, t.seed) != kv.Value || recClass(kv.Key) != klenClass(len(key))
}

// keptCopy reports whether recoverSegment's pass already kept a record with
// the canonical key of kv, the record at (bi, slot): an inline record's
// 8-byte little-endian key, an indirect one's blob key. Copies of a key share
// its full hash, and every kept record sits in its home pair or the stash, so
// it probes by fingerprint the kept slots of kv's home pair and, for a stash
// record, of the stash — in a bucket the pass has left, its mirror words; in
// bi, the pass's m, lo and hi below slot — and compares keys only when the
// full hashes are equal.
func (t *Table) keptCopy(mir *segMirror, bi, slot int, m, lo, hi uint64, kv pmem.KV, parts hashfn.Parts) bool {
	b, b2 := homePair(parts)
	cands := [...]int{b, b2, normalBuckets, normalBuckets + 1}
	n := 2
	if bi >= normalBuckets {
		n = len(cands)
	}
	for _, c := range cands[:n] {
		km, klo, khi := m&(1<<uint(slot)-1), lo, hi
		if c > bi {
			continue
		} else if c < bi {
			km = mir.word(c, mirBkMeta).Load() & slotMask
			klo, khi = mir.word(c, mirBkFPLo).Load(), mir.word(c, mirBkFPHi).Load()
		}
		for s := fpMatches(klo, khi, parts.FP) & km; s != 0; s &= s - 1 {
			r := mir.rec(c, bits.TrailingZeros64(s))
			var rb, kb [8]byte
			if recHash(r, t.seed) == parts.Hash && bytes.Equal(t.recKey(r, &rb), t.recKey(kv, &kb)) {
				return true
			}
		}
	}
	return false
}

// recKey returns a record's canonical key, using buf for an inline one.
func (t *Table) recKey(kv pmem.KV, buf *[8]byte) []byte {
	if recIsIndirect(kv.Key) {
		return t.vlog.KeyBytes(recBlobAddr(kv.Key))
	}
	binary.LittleEndian.PutUint64(buf[:], recWordKey(kv.Key))
	return buf[:]
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
		if d.mir.Load() == nil {
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
