//go:build linux

package pmem

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// TestArenaHugePages: with transparent huge pages available, a
// 64 MiB pool whose every page was touched is backed by huge pages over at
// least half of its 2 MiB-aligned interior (/proc/self/smaps'
// AnonHugePages), and a pool too small to hold an aligned 2 MiB still works.
func TestArenaHugePages(t *testing.T) {
	if thpMode() == "never" {
		t.Skip("transparent huge pages not available")
	}
	p, err := NewPool(Options{Size: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for off := uint64(4096); off < p.Size(); off += 4096 {
		p.QuietStoreU64(Addr(off), off)
	}
	start := uint64(uintptr(unsafe.Pointer(unsafe.SliceData(p.data))))
	lo, hi := (start+hugePageSize-1)&^(hugePageSize-1), (start+p.Size())&^(hugePageSize-1)
	got := anonHugeBytes(t, lo, hi)
	if got < (hi-lo)/2 {
		t.Errorf("AnonHugePages covers %d MiB of the arena's %d MiB aligned interior, want at least half", got>>20, (hi-lo)>>20)
	}
	if last := hi - start - 4096; p.QuietLoadU64(Addr(last)) != last {
		t.Errorf("arena word at %#x reads %d after the advice, want %d", last, p.QuietLoadU64(Addr(last)), last)
	}
	runtime.KeepAlive(p)

	small, err := NewPool(Options{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	a := Addr(small.Size() - 8)
	small.StoreU64(a, 42)
	small.Persist(a, 8)
	if v := small.LoadU64(a); v != 42 {
		t.Errorf("small pool reads %d, want 42", v)
	}
}

// anonHugeBytes sums /proc/self/smaps' AnonHugePages over the mappings that
// overlap [lo, hi), each capped at its overlap with the range.
func anonHugeBytes(t *testing.T, lo, hi uint64) uint64 {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var total, overlap uint64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		var s, e, kb uint64
		// A mapping's header line opens with "lo-hi"; its fields' lines
		// with "Name:".
		if f := strings.Fields(line); len(f) > 0 && !strings.HasSuffix(f[0], ":") {
			overlap = 0
			if _, err := fmt.Sscanf(f[0], "%x-%x", &s, &e); err == nil && s < hi && e > lo {
				overlap = min(e, hi) - max(s, lo)
			}
			continue
		}
		if _, err := fmt.Sscanf(line, "AnonHugePages: %d kB", &kb); err == nil && overlap > 0 {
			total += min(kb<<10, overlap)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return total
}
