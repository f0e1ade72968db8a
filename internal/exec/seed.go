package exec

import (
	"math"

	"repro/internal/ir"
	"repro/internal/stripefs"
)

// SeedF64 pre-initializes a float64 array's backing file contents, page by
// page, with no simulated cost: the experiments run against
// "pre-initialized data sets" read from disk, as in the paper's modified
// benchmarks. gen receives the linear element index.
func SeedF64(file *stripefs.File, pageSize int64, arr *ir.Array, gen func(i int64) float64) {
	seed(file, pageSize, arr, func(i int64) uint64 { return math.Float64bits(gen(i)) })
}

// SeedI64 pre-initializes an int64 array's backing file contents.
func SeedI64(file *stripefs.File, pageSize int64, arr *ir.Array, gen func(i int64) int64) {
	seed(file, pageSize, arr, func(i int64) uint64 { return uint64(gen(i)) })
}

// seed fills each of the array's pages in place in the file's backing
// store. Words past the array's end on its last page stay zero.
func seed(file *stripefs.File, pageSize int64, arr *ir.Array, gen func(i int64) uint64) {
	perPage := pageSize / ir.ElemSize
	firstPage := arr.Base / pageSize
	nPages := (arr.Elems*ir.ElemSize + pageSize - 1) / pageSize
	for p := int64(0); p < nPages; p++ {
		buf := file.InitPage(firstPage + p)
		i := p * perPage
		for k := range buf[:min(perPage, arr.Elems-i)] {
			buf[k] = gen(i + int64(k))
		}
	}
}
