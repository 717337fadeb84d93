package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randSlice(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		switch rng.Intn(16) {
		case 0:
			v = 0
		case 1:
			v = -v
		}
		out[i] = v
	}
	return out
}

// TestSIMDKernelsBitwise checks every vector kernel against its scalar
// reference, bit for bit, across lengths that exercise the quad loops
// and every tail size.
func TestSIMDKernelsBitwise(t *testing.T) {
	if !simdEnabled() {
		t.Skip("no vector unit on this platform")
	}
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 67; n++ {
		for trial := 0; trial < 4; trial++ {
			b4 := randSlice(rng, 4*n)
			a := randSlice(rng, 4)
			dst := randSlice(rng, n)
			want := append([]float64(nil), dst...)
			mulAddRows4Go(want, b4, a[0], a[1], a[2], a[3])
			dst512 := append([]float64(nil), dst...)
			mulAddRows4AVX2(dst, b4, a[0], a[1], a[2], a[3])
			for j := range dst {
				if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
					t.Fatalf("mulAddRows4 n=%d j=%d: avx2 %v != go %v", n, j, dst[j], want[j])
				}
			}
			if cpuSupportsAVX512() {
				mulAddRows4AVX512(dst512, b4, a[0], a[1], a[2], a[3])
				for j := range dst512 {
					if math.Float64bits(dst512[j]) != math.Float64bits(want[j]) {
						t.Fatalf("mulAddRows4 n=%d j=%d: avx512 %v != go %v", n, j, dst512[j], want[j])
					}
				}
			}

			var a16 [16]float64
			copy(a16[:], randSlice(rng, 16))
			dst4 := randSlice(rng, 4*n)
			want4 := append([]float64(nil), dst4...)
			mulAddRows4x4Go(want4, b4, &a16)
			got4 := append([]float64(nil), dst4...)
			mulAddRows4x4AVX2(got4, b4, &a16)
			got4z := append([]float64(nil), want4...)
			if cpuSupportsAVX512() {
				copy(got4z, dst4)
				mulAddRows4x4AVX512(got4z, b4, &a16)
			}
			for j := range want4 {
				if math.Float64bits(got4[j]) != math.Float64bits(want4[j]) || math.Float64bits(got4z[j]) != math.Float64bits(want4[j]) {
					t.Fatalf("mulAddRows4x4 n=%d row %d col %d: avx2 %v, avx512 %v != go %v", n, j/n, j%n, got4[j], got4z[j], want4[j])
				}
			}

			b := randSlice(rng, n)
			dst = randSlice(rng, n)
			want = append(want[:0:0], dst...)
			mulAddRow1Go(want, b, a[0])
			mulAddRow1AVX2(dst, b, a[0])
			for j := range dst {
				if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
					t.Fatalf("mulAddRow1 n=%d j=%d: avx2 %v != go %v", n, j, dst[j], want[j])
				}
			}

			x, y := randSlice(rng, n), randSlice(rng, n)
			if got, ref := dot4AVX2(x, y), dot4Go(x, y); math.Float64bits(got) != math.Float64bits(ref) {
				t.Fatalf("dot4 n=%d: avx2 %v != go %v", n, got, ref)
			}

			a2, b4x := randSlice(rng, 2*n), randSlice(rng, 4*n)
			var lanes, lanesRef [32]float64
			dot2x4AVX2(a2, b4x, &lanes)
			dot2x4LanesGo(a2, b4x, &lanesRef)
			for l := range lanes {
				if math.Float64bits(lanes[l]) != math.Float64bits(lanesRef[l]) {
					t.Fatalf("dot2x4 n=%d dot %d lane %d: avx2 %v != go %v", n, l/4, l%4, lanes[l], lanesRef[l])
				}
			}

			dst = make([]float64, n)
			want = make([]float64, n)
			hadamardIntoGo(want, x, y)
			hadamardIntoAVX2(dst, x, y)
			for j := range dst {
				if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
					t.Fatalf("hadamard n=%d j=%d: avx2 %v != go %v", n, j, dst[j], want[j])
				}
			}

			dst = randSlice(rng, n)
			bias := randSlice(rng, n)
			if n > 4 {
				dst[0], dst[1], dst[2] = 0, math.Copysign(0, -1), math.NaN()
				bias[3] = -dst[3]                                            // v = +0 via cancellation
				dst[4], bias[4] = math.Copysign(0, -1), math.Copysign(0, -1) // v = -0
			}
			want = append(want[:0:0], dst...)
			addBiasLeakyGo(want, bias, 0.01)
			addBiasLeakyAVX2(dst, bias, 0.01)
			for j := range dst {
				if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
					t.Fatalf("addBiasLeaky n=%d j=%d: avx2 %v != go %v (in %v bias %v)", n, j, dst[j], want[j], dst, bias)
				}
			}
		}
	}
}

func denseBitsEqual(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	g, w := got.Data(), want.Data()
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s element %d: simd %v != scalar %v", name, i, g[i], w[i])
		}
	}
}

// TestMatMulSIMDOnOffBitwise proves whole-kernel outputs do not depend
// on the vector path: MatMul, both transposed matmuls, Hadamard and
// AddScaled produce identical bits at every SIMD level the CPU runs and
// with SIMD forced off.
func TestMatMulSIMDOnOffBitwise(t *testing.T) {
	if !simdEnabled() {
		t.Skip("no vector unit on this platform")
	}
	levels := simdLevels(t)
	rng := rand.New(rand.NewSource(11))
	for _, sh := range [][3]int{{1, 1, 1}, {3, 5, 7}, {17, 33, 9}, {64, 131, 48}, {10, 4, 4}, {7, 385, 9}, {13, 37, 6}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := RandNormal(rng, m, k, 1)
		b := RandNormal(rng, k, n, 1)
		bt := RandNormal(rng, n, k, 1)
		c := RandNormal(rng, m, n, 1)

		run := func() [5]*Dense {
			add := c.Clone()
			add.AddScaled(Hadamard(c, c), -0.7)
			return [5]*Dense{MatMul(a, b), MatMulTransA(a, c), MatMulTransB(a, bt), Hadamard(c, c), add}
		}
		setSIMD("none")
		want := run()
		for _, level := range levels {
			setSIMD(level)
			got := run()
			for i, name := range []string{"MatMul", "MatMulTransA", "MatMulTransB", "Hadamard", "AddScaled"} {
				denseBitsEqual(t, fmt.Sprintf("%s %s %v", level, name, sh), got[i], want[i])
			}
		}
	}
}

// simdLevels returns the kernel levels this CPU can run ("avx512",
// "avx2", "none" — best first) and restores the entry level when the
// test ends, so a DSSDDI_SIMD cap survives the test.
func simdLevels(t *testing.T) []string {
	t.Helper()
	prev := SIMD()
	t.Cleanup(func() { setSIMD(prev) })
	var levels []string
	for _, l := range []string{"avx512", "avx2", "none"} {
		setSIMD(l)
		if SIMD() == l {
			levels = append(levels, l)
		}
	}
	setSIMD(prev)
	return levels
}

// fourRowShapes are the (K, n) shapes of the four-row kernel tests:
// every n in 1..67 (all vector step and tail sizes at every level)
// against K ≡ 0..3 mod 4 below and above blockK, plus the decoder's
// real 385x384 layer-1 shape.
func fourRowShapes() [][2]int {
	var shapes [][2]int
	for n := 1; n <= 67; n++ {
		for _, k := range []int{1, 2, 3, 4, 6, 13, 64, 129, 130, 131, 132} {
			shapes = append(shapes, [2]int{k, n})
		}
	}
	return append(shapes, [2]int{385, 384})
}

// zeroQuads zeroes quad q (elements 4q..4q+3) of row r of the four
// back-to-back rows of length k whenever bit r of (q+salt)%16 is set,
// so consecutive quads cycle through every subset of zero rows —
// including the mixed ones (1, 2 or 3 of the four rows zero) that take
// the per-row fallback. It also plants +Inf in the weight matrix w
// (k rows of n) on the first row of every mixed quad: a zero quad that
// were multiplied instead of skipped would turn 0*Inf into NaN, so the
// skip decision shows in the output bits.
func zeroQuads[T float32 | float64](rows []T, k, salt int, w []T, n int) {
	for q := 0; 4*q+3 < k; q++ {
		mask := (q + salt) % 16
		for r := 0; r < 4; r++ {
			if mask&(1<<r) != 0 {
				clear(rows[r*k+4*q : r*k+4*q+4])
			}
		}
		if mask != 0 && mask != 0xF {
			w[4*q*n+q%n] = T(math.Inf(1))
		}
	}
}

// TestMulRows4IntoMatchesMulRowInto checks the four-row kernel against
// four MulRowInto calls, bit for bit, at every SIMD level: each level's
// four-row and one-row results must both equal the scalar one-row
// result.
func TestMulRows4IntoMatchesMulRowInto(t *testing.T) {
	levels := simdLevels(t)
	rng := rand.New(rand.NewSource(17))
	for si, sh := range fourRowShapes() {
		k, n := sh[0], sh[1]
		b := New(k, n)
		copy(b.data, randSlice(rng, len(b.data)))
		a := randSlice(rng, 4*k)
		zeroQuads(a, k, si, b.data, n)

		setSIMD("none")
		ref := make([]float64, 4*n)
		for r := 0; r < 4; r++ {
			MulRowInto(ref[r*n:(r+1)*n], a[r*k:(r+1)*k], b)
		}
		for _, level := range levels {
			setSIMD(level)
			one := make([]float64, 4*n)
			for r := 0; r < 4; r++ {
				MulRowInto(one[r*n:(r+1)*n], a[r*k:(r+1)*k], b)
			}
			four := make([]float64, 4*n)
			for i := range four {
				four[i] = math.NaN() // MulRows4Into must overwrite, not accumulate
			}
			MulRows4Into(four, a, b)
			for j := range ref {
				if math.Float64bits(four[j]) != math.Float64bits(ref[j]) || math.Float64bits(one[j]) != math.Float64bits(ref[j]) {
					t.Fatalf("%s K=%d n=%d row %d col %d: MulRows4Into %v, MulRowInto %v, scalar MulRowInto %v",
						level, k, n, j/n, j%n, four[j], one[j], ref[j])
				}
			}
		}
	}
}

// TestMatMulTransBBlockedMatchesDot4 checks the 2x4-blocked a*bᵀ
// kernel element by element against the scalar dot4 reference, bit for
// bit, at every SIMD level and at workers 1 and 3: MatMulTransBInto
// must give dot4(a_i, b_j) and MatMulTransBAddInto acc + dot4(a_i,
// b_j). The shapes cover odd row counts (the one-row remainder), b row
// counts ≡ 0..3 mod 4 (the dot4 column tail) and K ≡ 0..3 mod 4 (the
// lane tail), up to the decoder's 385-wide layer.
func TestMatMulTransBBlockedMatchesDot4(t *testing.T) {
	levels := simdLevels(t)
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(29))
	for _, m := range []int{1, 2, 3, 5, 8, 17} {
		for _, p := range []int{1, 3, 4, 5, 9, 385} {
			for _, k := range []int{1, 3, 4, 5, 7, 8, 13, 384, 385} {
				a, b, acc := New(m, k), New(p, k), New(m, p)
				copy(a.data, randSlice(rng, len(a.data)))
				copy(b.data, randSlice(rng, len(b.data)))
				copy(acc.data, randSlice(rng, len(acc.data)))
				want := make([]float64, m*p)
				for i := 0; i < m; i++ {
					for j := 0; j < p; j++ {
						want[i*p+j] = dot4Go(a.Row(i), b.Row(j))
					}
				}
				for _, level := range levels {
					setSIMD(level)
					for _, workers := range []int{1, 3} {
						SetWorkers(workers)
						over := New(m, p)
						for i := range over.data {
							over.data[i] = math.NaN() // must overwrite, not accumulate
						}
						MatMulTransBInto(over, a, b)
						add := acc.Clone()
						MatMulTransBAddInto(add, a, b)
						for e, w := range want {
							if math.Float64bits(over.data[e]) != math.Float64bits(w) {
								t.Fatalf("%s workers=%d m=%d p=%d K=%d (%d,%d): MatMulTransBInto %v != dot4 %v",
									level, workers, m, p, k, e/p, e%p, over.data[e], w)
							}
							if sum := acc.data[e] + w; math.Float64bits(add.data[e]) != math.Float64bits(sum) {
								t.Fatalf("%s workers=%d m=%d p=%d K=%d (%d,%d): MatMulTransBAddInto %v != acc + dot4 %v",
									level, workers, m, p, k, e/p, e%p, add.data[e], sum)
							}
						}
					}
				}
			}
		}
	}
}
