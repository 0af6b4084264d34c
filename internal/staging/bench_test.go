package staging

import (
	"testing"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/sim"
)

// BenchmarkStoreQuery measures one round of 170 reader queries over one
// version of 340 blocks, the size of a ds-nto1 server's set, in two
// layouts: slabs of one dimension, and slabs split across two staging
// regions, so the blocks differ in both dimensions. Reader boxes are 16
// rows tall and start 4 rows into a writer's 16, so none aligns with a
// block edge.
func BenchmarkStoreQuery(b *testing.B) {
	const rows, cols, readers = 2720, 64, 170
	var slabs, split, queries []ndarray.Box
	for w := uint64(0); w < 340; w++ {
		slabs = append(slabs, box(b, []uint64{w * 8, 0}, []uint64{w*8 + 8, cols}))
	}
	for w := uint64(0); w < 170; w++ {
		split = append(split,
			box(b, []uint64{w * 16, 0}, []uint64{w*16 + 16, cols / 2}),
			box(b, []uint64{w * 16, cols / 2}, []uint64{w*16 + 16, cols}))
	}
	for r := uint64(0); r < readers; r++ {
		queries = append(queries, box(b, []uint64{r*16 + 4, 0}, []uint64{min(r*16+20, rows), cols}))
	}
	for _, layout := range []struct {
		name   string
		blocks []ndarray.Box
	}{{"one-dimension", slabs}, {"two-dimension", split}} {
		b.Run(layout.name, func(b *testing.B) {
			m, err := hpc.New(sim.NewEngine(), hpc.Titan(), 1)
			if err != nil {
				b.Fatal(err)
			}
			s := NewStore(m, m.Nodes[0], "srv", "staging", 0, 0)
			key := Key{Var: "T", Version: 1}
			for _, bx := range layout.blocks {
				if err := s.Put(key, ndarray.NewSyntheticBlock(bx)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := s.Query(key, q); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
