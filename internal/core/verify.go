package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dash/internal/hashfn"
	"dash/internal/pmem"
)

// Verify is the table's one invariant checker. A running table reads no PM
// metadata, so nothing at run time would notice a DRAM word that drifted
// from its PM word, or a record stored where no probe looks. On a quiescent
// table, with quiet loads only (it moves no traffic counter), it checks:
//
//   - the view mirrors the PM directory: block address, depth, every entry,
//     and no segment the PM directory names is missing from the view;
//   - the entries naming a segment hold one descriptor;
//   - each segment's claim (its PM header's, which a mirror must equal)
//     covers every entry naming it, and every entry it covers names it: the
//     claims partition the hash space;
//   - once recovery is complete, no owner lock is held and every segment
//     has a mirror; a mirror equals PM but for what a DRAM-only drop
//     (segDrop) left behind: every slot set in the mirror has a non-zero
//     word 0 in PM — PM's commit — and both its record words equal PM's; and
//     every slot clear in the mirror holds word 0 = 0 in PM, or a record the
//     segment does not claim — a stale slot, routed to another segment
//     (routing only narrows, so this holds across generations of splits);
//   - in a segment whose mirror matches PM so, every used slot, read from the
//     mirror: its fingerprint is its record hash's (PM keeps none: the
//     mirror's must be what recovery recomputes), the hash is claimed by the
//     segment, a normal record sits in its home pair, and no canonical key
//     appears twice; and every bucket's mirror meta word holds, above its
//     bitmap, exactly the number of stash records homed there (the stash
//     count, also the mirror's alone: a count too low lets a probe skip the
//     stash and miss a record, one too high costs misses a stash scan); an
//     indirect record names a blob the log holds (pmem.VarLog.Holds), which
//     is checked before the blob is read;
//   - both allocators' DRAM frontiers are the PM ones;
//   - once recovery is complete and every slot was checked, and retired
//     frees are drained: count is the mirror bitmaps' popcount; every blob
//     a slot names is one the log's chunk walk reaches, off the free list,
//     and every blob the walk reaches is named by a slot or free
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
	descs := make(map[pmem.Addr]*segDesc) // per segment the view names, the descriptor its first entry holds
	covered := make(map[pmem.Addr]uint64) // per named segment, the entries naming it that its claim covers
	lost := make(map[pmem.Addr]bool)      // segments PM entries name where the view names another
	for i := range v.entries {
		d := v.entries[i].Load()
		if sameDir {
			if seg := pmem.Addr(p.QuietLoadU64(dirEntryAddr(dir, uint64(i)))); d.seg != seg {
				fail("view entry %d names segment %#x, PM directory %#x", i, d.seg, seg)
				lost[seg] = true
			}
		}
		if first := descs[d.seg]; first == nil {
			descs[d.seg] = d
		} else if first != d {
			fail("view entry %d: segment %#x has a descriptor other than its first entry's", i, d.seg)
		}
		if l, pat := claim(d.seg); l > v.depth || uint64(i)>>(v.depth-l) != pat {
			fail("view entry %d: segment %#x claims (depth %d, pattern %#x), which does not cover it", i, d.seg, l, pat)
		} else {
			covered[d.seg]++
		}
	}

	refs := make(map[pmem.Addr]struct{})
	var records int64
	judged := true // every segment's slots were checked: count and log can be
	for seg := range lost {
		if descs[seg] == nil {
			fail("segment %#x is named by the PM directory, but by no view entry", seg)
			judged = false // its records are beyond the count
		}
	}
	for seg, d := range descs {
		if l, pat := claim(seg); l <= v.depth && covered[seg] != 1<<(v.depth-l) {
			fail("segment %#x claims (depth %d, pattern %#x), but only %d of its %d entries name it", seg, l, pat, covered[seg], 1<<(v.depth-l))
		}
		mir := d.mir.Load()
		if t.lazy.Load() == nil { // else the recovery driver may hold a lock
			if !d.owner.TryLock() {
				fail("segment %#x: owner lock held", seg)
			} else {
				d.owner.Unlock()
			}
			if mir == nil {
				fail("segment %#x: recovered, but has no mirror", seg)
			}
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
// PM — word for word in every used slot, and in every other an empty word 0
// or a stale record the segment does not claim — and, read from the mirror,
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
	var metas [totalBuckets]uint64 // the mirror's
	var homed [totalBuckets]int    // per home bucket, the stash records homed there
	keys := make(map[string]bool)  // canonical keys: an inline key is its 8-byte encoding
	for bi := 0; bi < totalBuckets; bi++ {
		m, lo, hi := mir.word(bi, mirBkMeta).Load(), mir.word(bi, mirBkFPLo).Load(), mir.word(bi, mirBkFPHi).Load()
		metas[bi] = m
		same := true
		for slot := 0; slot < slotsPerBucket; slot++ {
			ra := slotAddr(seg, bi, slot)
			pkv := pmem.KV{Key: p.QuietLoadU64(ra), Value: p.QuietLoadU64(ra.Add(8))}
			if !metaSlotUsed(m, slot) {
				if pkv.Key == 0 {
					continue // empty in PM too
				}
				// Stale: a record routed to another segment.
				if h := recSplitParts(pkv, t.seed).Hash; hashfn.SegmentIndex(h, uint8(l)) == pat {
					fail("segment %#x bucket %d slot %d: clear in the mirror, but PM holds a record the segment claims (hash %#x)", seg, bi, slot, h)
					ok = false
				}
				continue
			}
			n++
			kv := mir.rec(bi, slot)
			if pkv.Key == 0 {
				fail("segment %#x bucket %d slot %d: set in the mirror, clear in PM (word 0 is zero)", seg, bi, slot)
				ok = false
			} else if pkv != kv {
				same = false
			}
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
			if bi >= normalBuckets {
				homed[parts.BucketIndex(bucketBits)]++
			}
			var buf [8]byte
			kb := binary.LittleEndian.AppendUint64(buf[:0], recWordKey(kv.Key)) // an indirect record's key is its blob's
			if recIsIndirect(kv.Key) {
				a := recBlobAddr(kv.Key)
				if !t.vlog.Holds(a) {
					at(bi, slot, "names %#x, not a blob the chunk walk reaches: the log does not hold it", a)
					continue
				}
				refs[a] = struct{}{}
				klen, _ := t.vlog.Lens(a)
				kb = p.QuietBytes(a.Add(pmem.BlobHeaderSize), uint64(klen))
			}
			if keys[string(kb)] {
				at(bi, slot, "key %x appears twice", kb)
			}
			keys[string(kb)] = true
		}
		if !same {
			fail("segment %#x bucket %d: mirror diverges from PM", seg, bi)
			ok = false
		}
	}
	for bi, m := range metas {
		if c := m &^ slotMask >> metaStashShift; c != uint64(homed[bi]) {
			slotErrs = append(slotErrs, fmt.Errorf("segment %#x bucket %d: stash count %d, the stash holds %d records homed there", seg, bi, c, homed[bi]))
		}
	}
	if ok { // findings against a mirror that diverged from PM prove nothing
		for _, err := range slotErrs {
			fail("%v", err)
		}
	}
	return n, ok
}
