//go:build linux

package core

import (
	"testing"
	"unsafe"

	"dash/internal/pmem"
)

// TestMirrorsOnHugePages: with transparent huge pages available, the
// mirrors each constructor makes — Create's, first-touch recovery's after a
// reopen, and split siblings' — lie on huge pages over at least half of
// their bytes (/proc/self/smaps' AnonHugePages over their address ranges).
func TestMirrorsOnHugePages(t *testing.T) {
	if pmem.THPMode() == "never" {
		t.Skip("transparent huge pages not available")
	}
	pool, err := pmem.NewPool(pmem.Options{Size: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{InitialDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	requireMirrorsHuge(t, tbl, "Create")
	tbl.Close()
	re := openTestTable(t, pool)
	re.RecoverAll()
	requireMirrorsHuge(t, re, "first touch")

	grown := newTestTable(t, 16<<20, Options{InitialDepth: 0})
	for k := uint64(1); grown.met.splits.Total() < 64; k++ {
		if err := grown.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	requireMirrorsHuge(t, grown, "splits")
}

// requireMirrorsHuge fails the test unless huge pages cover at least half
// of the bytes of the table's mirrors.
func requireMirrorsHuge(t *testing.T, tbl *Table, what string) {
	t.Helper()
	var ranges [][2]uintptr
	tbl.cache.view.Load().eachSegment(func(d *segDesc) {
		start := uintptr(unsafe.Pointer(d.mir.Load()))
		ranges = append(ranges, [2]uintptr{start, start + uintptr(segMirrorBytes)})
	})
	total := uint64(len(ranges)) * segMirrorBytes
	got, err := pmem.AnonHugeBytes(ranges)
	if err != nil {
		t.Fatal(err)
	}
	if got < total/2 {
		t.Errorf("%s: AnonHugePages covers %d KiB of %d mirrors' %d KiB, want at least half", what, got>>10, len(ranges), total>>10)
	}
}
