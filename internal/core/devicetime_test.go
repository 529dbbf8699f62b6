package core

import (
	"encoding/binary"
	"testing"

	"dash/internal/pmem"
)

// TestOpsSettleTheirDeviceTime: under a cost model a store's and a flush's
// device time waits on the calling goroutine's ledger for its next fence, so
// every public op must reach a fence after its last charged store: once it
// returns, no ledger holds a deferred charge or a pending write line
// (pmem.CostModel.Deferred), or the op's device time would leak into a later
// op's wait or never be paid. Covered: Insert, in place and carrying a
// split and a directory doubling; Update in place; UpdateB copy-on-write
// and converting an inline record; Delete, InsertB, DeleteB; and an op that
// grows the record log by a chunk.
func TestOpsSettleTheirDeviceTime(t *testing.T) {
	tbl := newTestTable(t, 64<<20, Options{InitialDepth: 1})
	defer tbl.Close()
	m := pmem.DefaultOptane()
	tbl.pool.SetModel(m)
	seen := map[string]int{}
	do := func(name string, op func() error) {
		t.Helper()
		splits, depth, chunks := tbl.met.splits.Total(), tbl.GlobalDepth(), tbl.vlog.Stats().ChunkBytes
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		switch {
		case tbl.GlobalDepth() > depth:
			seen[name+" doubling"]++
		case tbl.met.splits.Total() > splits:
			seen[name+" splitting"]++
		}
		if tbl.vlog.Stats().ChunkBytes > chunks {
			seen["chunk grow"]++
		}
		seen[name]++
		if ns, lines := m.Deferred(); ns != 0 || lines != 0 {
			t.Fatalf("%s left %d ns and %d write lines of device time unpaid", name, ns, lines)
		}
	}
	found := func(ok bool, err error) error {
		if err == nil && !ok {
			t.Fatal("update or delete of a present key reported it missing")
		}
		return err
	}
	for i := 0; i < 6000; i++ {
		k := uint64(i)
		var kb [8]byte
		binary.LittleEndian.PutUint64(kb[:], k)
		vk := varKey(i, 24)
		do("Insert", func() error { return tbl.Insert(k, k) })
		do("Update", func() error { return found(tbl.Update(k, k+1)) })
		do("InsertB", func() error { return tbl.InsertB(vk, varVal(i, 40)) })
		do("UpdateB copy-on-write", func() error { return found(tbl.UpdateB(vk, varVal(i, 56))) })
		switch i % 4 {
		case 1:
			do("UpdateB converting", func() error { return found(tbl.UpdateB(kb[:], varVal(i, 20))) })
		case 2:
			do("Delete", func() error { return found(tbl.Delete(k), nil) })
		case 3:
			do("DeleteB", func() error { return found(tbl.DeleteB(vk), nil) })
		}
	}
	for _, want := range []string{"Insert", "Insert splitting", "Insert doubling", "Update", "InsertB",
		"UpdateB copy-on-write", "UpdateB converting", "Delete", "DeleteB", "chunk grow"} {
		if seen[want] == 0 {
			t.Errorf("no op covered %q (covered: %v)", want, seen)
		}
	}
}
