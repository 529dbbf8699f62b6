package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"dash/internal/hashfn"
	"dash/internal/pmem"
)

// Verify is the table's one invariant checker. A running table reads no PM
// metadata, so nothing at run time would notice a DRAM word that drifted
// from its PM word, or a record stored where no probe looks. On a quiescent
// table, with quiet loads only (it moves no traffic counter), it checks:
//
//   - the view mirrors the PM directory: block address, depth, every entry;
//   - each entry's descriptor is its segment's registered one, and every
//     registered segment is named;
//   - each segment's claim (its PM header's, which a mirror must equal)
//     covers every entry naming it, and every entry it covers names it: the
//     claims partition the hash space;
//   - no split marker is set, no splitter held; a recovered segment has a
//     mirror, and its mirror equals PM but for what a DRAM-only drop
//     (segDrop) left behind (PM bucket word 0 is reserved): a bucket's PM
//     meta word is the word its mirror remembers where it remembers one, and
//     the mirror's meta word elsewhere; every slot set in the mirror is set
//     in PM; fingerprint words and the record words of every used slot equal
//     PM's; and every slot set in PM but not in the mirror — a stale slot —
//     holds a record the segment does not claim, routed to another segment
//     (routing only narrows, so this holds across generations of splits);
//   - in a segment whose mirror matches PM so, every used slot, read from the
//     mirror: its fingerprint is its record hash's, the hash is claimed by
//     the segment, a normal record sits in its home pair, a stash record is
//     reachable from its home bucket by a matching tracking slot or an
//     overflow count > 0 (not the reverse: a crash between a stash delete and
//     its untrack, or a stale slot's drop at recovery, leaves a stale count),
//     and no canonical key appears twice;
//   - both allocators' DRAM frontiers are the PM ones;
//   - once recovery is complete and every slot was checked, and retired
//     frees are drained: count is the bitmaps' popcount; every blob a slot
//     names is one the log's chunk walk reaches, off the free list, and
//     every blob the walk reaches is named by a slot or free
//     (pmem.VarLog.Verify).
//
// It returns an error naming each entry, segment, slot and word that breaks
// one, nil if none does.
func (t *Table) Verify() error {
	p := t.pool
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	v := t.cache.view.Load()
	dir := pmem.Addr(p.QuietLoadU64(rootAddr.Add(rootOffDir)))
	g := uint8(p.QuietLoadU64(dir.Add(dirOffDepth)))
	sameDir := v.dir == dir && v.depth == g
	if !sameDir {
		fail("view mirrors directory %#x at depth %d, PM root names %#x at depth %d", v.dir, v.depth, dir, g)
	}
	// Claims are read from the PM headers, which every mirror must equal.
	claim := func(seg pmem.Addr) (uint8, uint64) {
		return uint8(p.QuietLoadU64(seg.Add(segOffDepth))), p.QuietLoadU64(seg.Add(segOffPattern))
	}
	covered := make(map[pmem.Addr]uint64) // per named segment, the entries naming it that its claim covers
	for i := range v.entries {
		d := v.entries[i].Load()
		if sameDir {
			if seg := pmem.Addr(p.QuietLoadU64(dirEntryAddr(dir, uint64(i)))); d.seg != seg {
				fail("view entry %d names segment %#x, PM directory %#x", i, d.seg, seg)
			}
		}
		if t.cache.descs[d.seg] != d {
			fail("view entry %d: segment %#x has a descriptor other than its registered one", i, d.seg)
		}
		if l, pat := claim(d.seg); l > v.depth || uint64(i)>>(v.depth-l) != pat {
			fail("view entry %d: segment %#x claims (depth %d, pattern %#x), which does not cover it", i, d.seg, l, pat)
			covered[d.seg] += 0 // named all the same
		} else {
			covered[d.seg]++
		}
	}

	refs := make(map[pmem.Addr]struct{})
	var records int64
	judged := true // every segment's slots were checked: count and log can be
	for seg, d := range t.cache.descs {
		if n, named := covered[seg]; !named {
			fail("segment %#x has a descriptor, but no view entry names it", seg)
		} else if l, pat := claim(seg); l <= v.depth && n != 1<<(v.depth-l) {
			fail("segment %#x claims (depth %d, pattern %#x), but only %d of its %d entries name it", seg, l, pat, n, 1<<(v.depth-l))
		}
		if st := p.QuietLoadU64(seg.Add(segOffSplit)); st != 0 {
			fail("segment %#x: split marker %#x left set", seg, st)
		}
		if d.splitter.Load() {
			fail("segment %#x: split ownership held", seg)
		}
		mir := d.mir.Load()
		if mir == nil && d.rec.Load() == segRecDone {
			fail("segment %#x: recovered, but has no mirror", seg)
		}
		if mir == nil {
			judged = false
			continue
		}
		n, ok := t.verifySegment(seg, mir, refs, fail)
		records += n
		judged = judged && ok
	}

	t.freeMu.Lock()
	next := t.allocNext
	t.freeMu.Unlock()
	if pm := p.QuietLoadU64(rootAddr.Add(rootOffAllocNxt)); pm != next {
		fail("allocation frontier %#x, PM frontier %#x", next, pm)
	}
	if t.lazy.Load() != nil || !judged {
		refs = nil // the log's live set cannot be judged
	} else if t.em.Drain(); t.count.Load() != records {
		fail("count %d, bitmaps hold %d records", t.count.Load(), records)
	}
	if err := t.vlog.Verify(refs); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// verifySegment checks a recovered segment in one pass: its mirror against
// PM — word for word but for the stale slots a drop left in PM, each of which
// must hold a record the segment does not claim — and, read from the mirror,
// every used slot, whose findings count only if the whole mirror matched. It
// returns the records the bitmaps hold and whether the mirror matched;
// indirect records' blobs go into refs.
func (t *Table) verifySegment(seg pmem.Addr, mir *segMirror, refs map[pmem.Addr]struct{}, fail func(string, ...any)) (int64, bool) {
	p := t.pool
	l, pat := mir.depth.Load(), mir.pattern.Load()
	ok := true
	if pl, ppat := p.QuietLoadU64(seg.Add(segOffDepth)), p.QuietLoadU64(seg.Add(segOffPattern)); pl != l || ppat != pat {
		fail("segment %#x: mirrored claim (depth %d, pattern %#x), PM header (%d, %#x)", seg, l, pat, pl, ppat)
		ok = false
	}
	var n int64
	var slotErrs []error
	at := func(bi, slot int, format string, args ...any) {
		slotErrs = append(slotErrs, fmt.Errorf("segment %#x bucket %d slot %d: "+format, append([]any{seg, bi, slot}, args...)...))
	}
	var metas, his [totalBuckets]uint64 // the mirror's, for the stash records' home buckets
	keys8 := make(map[uint64]bool)      // canonical 8-byte keys, as little-endian uint64s
	keys := make(map[string]bool)       // every other canonical key
	for bi := 0; bi < totalBuckets; bi++ {
		ba := segBucket(seg, bi)
		m, lo, hi := mir.word(bi, mirBkMeta).Load(), mir.word(bi, mirBkFPLo).Load(), mir.word(bi, mirBkFPHi).Load()
		metas[bi], his[bi] = m, hi
		// Where the mirror remembers no PM meta word, PM's is the mirror's and
		// the word joins the fingerprint and record words' comparison. Where it
		// remembers one, PM's is that word, every slot the mirror uses is set
		// there, and a slot set there alone is stale: it must hold a record
		// the segment does not claim.
		pm := p.QuietLoadU64(ba.Add(bkOffMeta))
		r := mir.pmMeta[bi].Load()
		same := r != 0 || pm == m
		if r != 0 {
			if pm != r {
				fail("segment %#x bucket %d: PM meta %#x, but the mirror remembers %#x", seg, bi, pm, r)
				ok = false
			}
			if lost := m &^ pm & slotMask; lost != 0 {
				fail("segment %#x bucket %d: slots %#x set in the mirror, clear in PM", seg, bi, lost)
				ok = false
			}
			for stale := pm &^ m & slotMask; stale != 0; stale &= stale - 1 {
				slot := bits.TrailingZeros64(stale)
				ra := recordAddr(ba, slot)
				kv := pmem.KV{Key: p.QuietLoadU64(ra), Value: p.QuietLoadU64(ra.Add(8))}
				if h := recSplitParts(kv, t.seed).Hash; hashfn.SegmentIndex(h, uint8(l)) == pat {
					fail("segment %#x bucket %d slot %d: stale in PM, and its record hash %#x is claimed by the segment", seg, bi, slot, h)
					ok = false
				}
			}
		}
		same = same && p.QuietLoadU64(ba.Add(bkOffFPLo)) == lo && p.QuietLoadU64(ba.Add(bkOffFPHi)) == hi
		for slot := 0; slot < slotsPerBucket; slot++ {
			if !metaSlotUsed(m, slot) {
				continue
			}
			n++
			kv, ra := mir.rec(bi, slot), recordAddr(ba, slot)
			same = same && (pmem.KV{Key: p.QuietLoadU64(ra), Value: p.QuietLoadU64(ra.Add(8))}) == kv
			parts := recSplitParts(kv, t.seed)
			if fp := fpGet(lo, hi, slot); fp != parts.FP {
				at(bi, slot, "fingerprint %#x, the record's hash has %#x", fp, parts.FP)
			}
			if hashfn.SegmentIndex(parts.Hash, uint8(l)) != pat {
				at(bi, slot, "record hash %#x is not claimed by the segment", parts.Hash)
			}
			if b, b2 := homePair(parts); bi < normalBuckets && bi != b && bi != b2 {
				at(bi, slot, "record outside its home pair (%d, %d)", b, b2)
			}
			if home := parts.BucketIndex(bucketBits); bi >= normalBuckets && !stashReachable(metas[home], his[home], parts.FP, bi-normalBuckets) {
				at(bi, slot, "stash record unreachable from its home bucket")
			}
			key := kv.Key
			if recIsIndirect(kv.Key) {
				a := recBlobAddr(kv.Key)
				refs[a] = struct{}{}
				klen, _ := t.vlog.Lens(a)
				kb := p.QuietBytes(a.Add(pmem.BlobHeaderSize), uint64(klen))
				if klen != 8 {
					if keys[string(kb)] {
						at(bi, slot, "key %q appears twice", kb)
					}
					keys[string(kb)] = true
					continue
				}
				key = binary.LittleEndian.Uint64(kb)
			}
			if keys8[key] {
				at(bi, slot, "key %#x appears twice", key)
			}
			keys8[key] = true
		}
		if !same {
			fail("segment %#x bucket %d: mirror diverges from PM", seg, bi)
			ok = false
		}
	}
	if ok { // findings against a mirror that diverged from PM prove nothing
		for _, err := range slotErrs {
			fail("%v", err)
		}
	}
	return n, ok
}
