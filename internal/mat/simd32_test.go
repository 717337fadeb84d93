package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randSlice32(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		v := float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2)))
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

// TestSIMDKernels32Bitwise checks every float32 vector kernel against
// its scalar reference, bit for bit, across lengths that exercise the
// eight-lane loops and every tail size.
func TestSIMDKernels32Bitwise(t *testing.T) {
	if !simdEnabled() {
		t.Skip("no vector unit on this platform")
	}
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 67; n++ {
		for trial := 0; trial < 4; trial++ {
			b4 := randSlice32(rng, 4*n)
			a := randSlice32(rng, 4)
			dst := randSlice32(rng, n)
			want := append([]float32(nil), dst...)
			mulAddRows4Go32(want, b4, a[0], a[1], a[2], a[3])
			dst512 := append([]float32(nil), dst...)
			mulAddRows4AVX2F32(dst, b4, a[0], a[1], a[2], a[3])
			for j := range dst {
				if math.Float32bits(dst[j]) != math.Float32bits(want[j]) {
					t.Fatalf("mulAddRows432 n=%d j=%d: avx2 %v != go %v", n, j, dst[j], want[j])
				}
			}
			if cpuSupportsAVX512() {
				mulAddRows4AVX512F32(dst512, b4, a[0], a[1], a[2], a[3])
				for j := range dst512 {
					if math.Float32bits(dst512[j]) != math.Float32bits(want[j]) {
						t.Fatalf("mulAddRows432 n=%d j=%d: avx512 %v != go %v", n, j, dst512[j], want[j])
					}
				}
			}

			var a16 [16]float32
			copy(a16[:], randSlice32(rng, 16))
			dst4 := randSlice32(rng, 4*n)
			want4 := append([]float32(nil), dst4...)
			mulAddRows4x4Go32(want4, b4, &a16)
			got4 := append([]float32(nil), dst4...)
			mulAddRows4x4AVX2F32(got4, b4, &a16)
			got4z := append([]float32(nil), want4...)
			if cpuSupportsAVX512() {
				copy(got4z, dst4)
				mulAddRows4x4AVX512F32(got4z, b4, &a16)
			}
			for j := range want4 {
				if math.Float32bits(got4[j]) != math.Float32bits(want4[j]) || math.Float32bits(got4z[j]) != math.Float32bits(want4[j]) {
					t.Fatalf("mulAddRows4x4x32 n=%d row %d col %d: avx2 %v, avx512 %v != go %v", n, j/n, j%n, got4[j], got4z[j], want4[j])
				}
			}

			b := randSlice32(rng, n)
			dst = randSlice32(rng, n)
			want = append(want[:0:0], dst...)
			mulAddRow1Go32(want, b, a[0])
			mulAddRow1AVX2F32(dst, b, a[0])
			for j := range dst {
				if math.Float32bits(dst[j]) != math.Float32bits(want[j]) {
					t.Fatalf("mulAddRow132 n=%d j=%d: avx2 %v != go %v", n, j, dst[j], want[j])
				}
			}

			x, y := randSlice32(rng, n), randSlice32(rng, n)
			if got, ref := dot8AVX2F32(x, y), dot8Go32(x, y); math.Float32bits(got) != math.Float32bits(ref) {
				t.Fatalf("dot8x32 n=%d: avx2 %v != go %v", n, got, ref)
			}

			dst = randSlice32(rng, n)
			bias := randSlice32(rng, n)
			if n > 4 {
				dst[0], dst[1], dst[2] = 0, float32(math.Copysign(0, -1)), float32(math.NaN())
				bias[3] = -dst[3]                                                              // v = +0 via cancellation
				dst[4], bias[4] = float32(math.Copysign(0, -1)), float32(math.Copysign(0, -1)) // v = -0
			}
			want = append(want[:0:0], dst...)
			addBiasLeakyGo32(want, bias, 0.01)
			addBiasLeakyAVX2F32(dst, bias, 0.01)
			for j := range dst {
				if math.Float32bits(dst[j]) != math.Float32bits(want[j]) {
					t.Fatalf("addBiasLeaky32 n=%d j=%d: avx2 %v != go %v (in %v bias %v)", n, j, dst[j], want[j], dst, bias)
				}
			}
		}
	}
}

// TestMulRowHadamardInto32SIMDOnOff proves the fused pair-decode
// projection produces identical f32 bits with the vector path forced
// off, across shapes that hit the quad loop, the scalar tail and the
// treatment row.
func TestMulRowHadamardInto32SIMDOnOff(t *testing.T) {
	if !simdEnabled() {
		t.Skip("no vector unit on this platform")
	}
	rng := rand.New(rand.NewSource(13))
	for _, sh := range [][2]int{{1, 1}, {4, 3}, {7, 9}, {24, 24}, {64, 64}, {65, 33}} {
		d, h := sh[0], sh[1]
		b := New32(d+1, h)
		copy(b.data, randSlice32(rng, len(b.data)))
		x, y := randSlice32(rng, d), randSlice32(rng, d)
		tv := randSlice32(rng, 1)[0]
		got := make([]float32, h)
		want := make([]float32, h)
		MulRowHadamardInto32(got, x, y, tv, b)
		prev := SIMD()
		setSIMD("none")
		MulRowHadamardInto32(want, x, y, tv, b)
		setSIMD(prev)
		for j := range got {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("d=%d h=%d j=%d: simd %v != scalar %v", d, h, j, got[j], want[j])
			}
		}
	}
}

// TestMulRowsHadamard4Into32MatchesMulRowHadamardInto32 checks the
// four-pair fused projection against four MulRowHadamardInto32 calls,
// bit for bit, at every SIMD level, with zero quads in every subset of
// the four drug rows and zero treatment values.
func TestMulRowsHadamard4Into32MatchesMulRowHadamardInto32(t *testing.T) {
	levels := simdLevels(t)
	rng := rand.New(rand.NewSource(23))
	for si, sh := range fourRowShapes() {
		d, n := sh[0]-1, sh[1]
		if d < 1 {
			continue
		}
		b := New32(d+1, n)
		copy(b.data, randSlice32(rng, len(b.data)))
		x := randSlice32(rng, d)
		y4 := randSlice32(rng, 4*d)
		zeroQuads(y4, d, si, b.data, n)
		y := [4][]float32{y4[:d], y4[d : 2*d], y4[2*d : 3*d], y4[3*d:]}
		tv := randSlice32(rng, 4)
		tv[si%4] = 0

		setSIMD("none")
		ref := make([]float32, 4*n)
		for r := 0; r < 4; r++ {
			MulRowHadamardInto32(ref[r*n:(r+1)*n], x, y[r], tv[r], b)
		}
		for _, level := range levels {
			setSIMD(level)
			one := make([]float32, 4*n)
			for r := 0; r < 4; r++ {
				MulRowHadamardInto32(one[r*n:(r+1)*n], x, y[r], tv[r], b)
			}
			four := make([]float32, 4*n)
			for i := range four {
				four[i] = float32(math.NaN())
			}
			MulRowsHadamard4Into32(four, x, y, tv, b)
			for j := range ref {
				if math.Float32bits(four[j]) != math.Float32bits(ref[j]) || math.Float32bits(one[j]) != math.Float32bits(ref[j]) {
					t.Fatalf("%s d=%d n=%d row %d col %d: MulRowsHadamard4Into32 %v, MulRowHadamardInto32 %v, scalar %v",
						level, d, n, j/n, j%n, four[j], one[j], ref[j])
				}
			}
		}
	}
}
