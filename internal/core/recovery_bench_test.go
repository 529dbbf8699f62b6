package core

import (
	"runtime"
	"testing"

	"dash/internal/pmem"
)

// BenchmarkFirstTouch times a restart to full recovery — Open, then
// RecoverAll, which first-touches every segment and sweeps the record log —
// of two tables, 800 k inline records and 200 k variable-length ones (24-byte
// keys, 40-byte values), each as a crash image (taken before Close: first
// touch runs the duplicate and blob checks and derives the count) and as a
// clean one (taken after Close). A table is built once for both of its
// images; each op copies its image into a fresh pool off the clock. Compare
// trees with alternating runs of at least 15 opens each:
//
//	go test -run '^$' -bench FirstTouch -benchtime 15x ./internal/core
func BenchmarkFirstTouch(b *testing.B) {
	for _, c := range []struct {
		name string
		size uint64
		fill func(*Table) error
	}{
		{"u64-800k", 40 << 20, func(tbl *Table) error {
			for k := uint64(0); k < 800_000; k++ {
				if err := tbl.Insert(k, k); err != nil {
					return err
				}
			}
			return nil
		}},
		{"var-200k", 32 << 20, func(tbl *Table) error {
			for i := 0; i < 200_000; i++ {
				if err := tbl.InsertB(varKey(i, 24), varVal(i, 40)); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		var crash, clean []byte
		images := func(b *testing.B) {
			if crash != nil {
				return
			}
			pool, err := pmem.NewPool(pmem.Options{Size: c.size})
			if err != nil {
				b.Fatal(err)
			}
			tbl, err := Create(pool, Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := c.fill(tbl); err != nil {
				b.Fatal(err)
			}
			crash = pool.Snapshot()
			tbl.Close()
			clean = pool.Snapshot()
		}
		for _, img := range []struct {
			kind string
			img  *[]byte
		}{{"crash", &crash}, {"clean", &clean}} {
			b.Run(c.name+"/"+img.kind, func(b *testing.B) {
				images(b)
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					p, err := pmem.OpenSnapshot(*img.img, pmem.Options{})
					if err != nil {
						b.Fatal(err)
					}
					runtime.GC()
					b.StartTimer()
					tbl, err := Open(p)
					if err != nil {
						b.Fatal(err)
					}
					tbl.RecoverAll()
				}
			})
		}
	}
}
