package core

import (
	"errors"
	"fmt"

	"dash/internal/pmem"
)

// Verify is the net under DRAM as the runtime truth. A running table reads
// no PM metadata — routes, claims, bitmaps, fingerprints, record words and
// allocation frontiers all come from DRAM, and PM only takes the stores —
// so nothing at run time would notice a DRAM word that drifted from the PM
// word it stands for. Verify compares them, on a quiescent table:
//
//   - the directory view against the PM directory: block address, depth and
//     every entry;
//   - each entry's descriptor's mirrored claim against the entry: the
//     (depth, pattern) must cover it;
//   - every mirror against its segment, word for word (mirrorVerifyAll);
//   - the DRAM allocation frontiers — the table's and the record log's —
//     against the persisted ones.
//
// It returns an error naming every entry, bucket and word that differs, nil
// if none does. Segments still behind their first-touch gate after Open have
// no DRAM state yet and are skipped. Only meaningful while no operation
// runs; it reads PM quietly, so it perturbs no traffic counter.
func (t *Table) Verify() error {
	p := t.pool
	var errs []error
	v := t.cache.view.Load()
	dir := pmem.Addr(p.QuietLoadU64(rootAddr.Add(rootOffDir)))
	if g := uint8(p.QuietLoadU64(dir.Add(dirOffDepth))); v.dir != dir || v.depth != g {
		errs = append(errs, fmt.Errorf("view mirrors directory %#x at depth %d, PM root names %#x at depth %d", v.dir, v.depth, dir, g))
	} else {
		for i := range v.entries {
			if seg, d := pmem.Addr(p.QuietLoadU64(dirEntryAddr(dir, uint64(i)))), v.entries[i].Load(); d.seg != seg {
				errs = append(errs, fmt.Errorf("view entry %d names segment %#x, PM directory %#x", i, d.seg, seg))
			}
		}
	}
	for i := range v.entries {
		d := v.entries[i].Load()
		if mir := d.mir.Load(); mir != nil {
			l, pat := uint8(mir.depth.Load()), mir.pattern.Load()
			if l > v.depth || uint64(i)>>(v.depth-l) != pat {
				errs = append(errs, fmt.Errorf("view entry %d: segment %#x claims (depth %d, pattern %#x), which does not cover it", i, d.seg, l, pat))
			}
		}
	}
	errs = append(errs, t.mirrorVerifyAll()...)
	t.freeMu.Lock()
	next := t.allocNext
	t.freeMu.Unlock()
	if pm := p.QuietLoadU64(rootAddr.Add(rootOffAllocNxt)); pm != next {
		errs = append(errs, fmt.Errorf("allocation frontier %#x, PM frontier %#x", next, pm))
	}
	if err := t.vlog.Verify(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// mirrorVerifyAll compares the mirror of every recovered segment the view
// names against PM with quiet loads, word for word, and names each header
// claim and bucket that differs. The PM bucket word 0 is reserved and not
// compared.
func (t *Table) mirrorVerifyAll() []error {
	p := t.pool
	var errs []error
	t.cache.view.Load().eachSegment(func(d *segDesc) {
		seg, mir := d.seg, d.mir.Load()
		if mir == nil {
			return
		}
		if l, pat := p.QuietLoadU64(seg.Add(segOffDepth)), p.QuietLoadU64(seg.Add(segOffPattern)); mir.depth.Load() != l || mir.pattern.Load() != pat {
			errs = append(errs, fmt.Errorf("segment %#x: mirrored claim (depth %d, pattern %#x), PM header (%d, %#x)",
				seg, mir.depth.Load(), mir.pattern.Load(), l, pat))
		}
		for bi := 0; bi < totalBuckets; bi++ {
			ba := segBucket(seg, bi)
			m := p.QuietLoadU64(ba.Add(bkOffMeta))
			ok := m == mir.word(bi, mirBkMeta).Load() &&
				p.QuietLoadU64(ba.Add(bkOffFPLo)) == mir.word(bi, mirBkFPLo).Load() &&
				p.QuietLoadU64(ba.Add(bkOffFPHi)) == mir.word(bi, mirBkFPHi).Load()
			for slot := 0; slot < slotsPerBucket && ok; slot++ {
				ra := recordAddr(ba, slot)
				ok = !metaSlotUsed(m, slot) || (pmem.KV{Key: p.QuietLoadU64(ra), Value: p.QuietLoadU64(ra.Add(8))}) == mir.rec(bi, slot)
			}
			if !ok {
				errs = append(errs, fmt.Errorf("segment %#x bucket %d: mirror diverges from PM", seg, bi))
			}
		}
	})
	return errs
}
