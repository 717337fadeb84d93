package mat

import (
	"math/rand"
	"testing"
)

// benchWorkers compares the serial path against the pooled path; on a
// multi-core runner the /parallel variants should scale with cores.
var benchWorkers = []struct {
	name string
	n    int
}{
	{"serial", 1},
	{"parallel", 0}, // 0 = GOMAXPROCS
}

func benchMatMulInto(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	a := randDense(rng, m, k)
	x := randDense(rng, k, n)
	dst := New(m, n)
	for _, w := range benchWorkers {
		b.Run(w.name, func(b *testing.B) {
			SetWorkers(w.n)
			defer SetWorkers(0)
			b.ReportAllocs()
			b.SetBytes(int64(8 * m * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, a, x)
			}
		})
	}
}

func BenchmarkMatMulInto128(b *testing.B) { benchMatMulInto(b, 128, 128, 128) }
func BenchmarkMatMulInto512(b *testing.B) { benchMatMulInto(b, 512, 512, 512) }
func BenchmarkMatMulIntoGCN(b *testing.B) { benchMatMulInto(b, 4157, 71, 64) } // paper-scale layer
func BenchmarkMatMulTransA(b *testing.B)  { benchTrans(b, MatMulTransA) }
func BenchmarkMatMulTransB(b *testing.B)  { benchTrans(b, MatMulTransB) }

// The decoder benchmarks run the MD decoder's layer-1 shapes at the
// benchmark width (1,648 training pairs, hidden 384, 385-wide input):
// BenchmarkMatMulIntoDecoder is the forward pass inter·W1 and
// BenchmarkMatMulTransBDecoder the input gradient dHid·W1ᵀ, the two
// matmuls every training epoch runs twice per pair.
func BenchmarkMatMulIntoDecoder(b *testing.B) { benchMatMulInto(b, 1648, 385, 384) }

func BenchmarkMatMulTransBDecoder(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dOut := randDense(rng, 1648, 384)
	w := randDense(rng, 385, 384)
	dst := New(1648, 385)
	for _, wk := range benchWorkers {
		b.Run(wk.name, func(b *testing.B) {
			SetWorkers(wk.n)
			defer SetWorkers(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulTransBInto(dst, dOut, w)
			}
		})
	}
}

func benchTrans(b *testing.B, f func(a, c *Dense) *Dense) {
	rng := rand.New(rand.NewSource(1))
	a := randDense(rng, 512, 256)
	c := randDense(rng, 512, 256)
	for _, w := range benchWorkers {
		b.Run(w.name, func(b *testing.B) {
			SetWorkers(w.n)
			defer SetWorkers(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f(a, c)
			}
		})
	}
}

func BenchmarkHadamardInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randDense(rng, 1024, 512)
	y := randDense(rng, 1024, 512)
	dst := New(1024, 512)
	for _, w := range benchWorkers {
		b.Run(w.name, func(b *testing.B) {
			SetWorkers(w.n)
			defer SetWorkers(0)
			b.ReportAllocs()
			b.SetBytes(int64(8 * 1024 * 512))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				HadamardInto(dst, x, y)
			}
		})
	}
}

func BenchmarkAddScaled(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randDense(rng, 1024, 512)
	dst := New(1024, 512)
	for _, w := range benchWorkers {
		b.Run(w.name, func(b *testing.B) {
			SetWorkers(w.n)
			defer SetWorkers(0)
			b.ReportAllocs()
			b.SetBytes(int64(8 * 1024 * 512))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst.AddScaled(x, 1e-9)
			}
		})
	}
}

// BenchmarkMulRows4Into times four rows against the MD decoder's
// layer-1 shape at the benchmark width (385x384: 1.18 MB of f64
// weights, more than L1 holds) through the four-row kernel and as four
// one-row calls, at both precisions. The four-row form streams the
// weights once per op, the one-row form four times.
func BenchmarkMulRows4Into(b *testing.B) {
	const k, n = 385, 384
	rng := rand.New(rand.NewSource(1))
	w := randDense(rng, k, n)
	a := randDense(rng, 4, k).Data()
	dst := make([]float64, 4*n)
	w32 := Dense32From(w)
	x := Floats32(a[:k-1])
	y4 := Floats32(a[:4*(k-1)])
	y := [4][]float32{y4[:k-1], y4[k-1 : 2*(k-1)], y4[2*(k-1) : 3*(k-1)], y4[3*(k-1):]}
	tv := []float32{1, 0, 1, 0}
	dst32 := make([]float32, 4*n)
	b.Run("f64/rows4", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			MulRows4Into(dst, a, w)
		}
	})
	b.Run("f64/4xrow", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for r := 0; r < 4; r++ {
				MulRowInto(dst[r*n:(r+1)*n], a[r*k:(r+1)*k], w)
			}
		}
	})
	b.Run("f32/rows4", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			MulRowsHadamard4Into32(dst32, x, y, tv, w32)
		}
	})
	b.Run("f32/4xrow", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for r := 0; r < 4; r++ {
				MulRowHadamardInto32(dst32[r*n:(r+1)*n], x, y[r], tv[r], w32)
			}
		}
	})
}
