//go:build !amd64

package mat

// Portable float32 fallbacks — the scalar references in simd32.go are
// the implementation on non-amd64 platforms, mirroring simd_generic.go.

func mulAddRows432(dst, b4 []float32, a0, a1, a2, a3 float32) {
	if len(b4) < 4*len(dst) {
		panic("mat: mulAddRows432 needs 4*len(dst) b values")
	}
	mulAddRows4Go32(dst, b4, a0, a1, a2, a3)
}

func mulAddRows4x4x32(dst, b4 []float32, a *[16]float32) {
	if len(dst)%4 != 0 || len(b4) < len(dst) {
		panic("mat: mulAddRows4x4x32 needs four dst rows and 4*n b values")
	}
	mulAddRows4x4Go32(dst, b4, a)
}

func mulAddRow132(dst, b []float32, a float32) {
	mulAddRow1Go32(dst, b, a)
}

func dot8x32(a, b []float32) float32 { return dot8Go32(a, b) }

// AddBiasLeakyInto32 computes dst[i] = leaky(dst[i] + bias[i]) — the
// float32 twin of AddBiasLeakyInto.
func AddBiasLeakyInto32(dst, bias []float32, slope float32) {
	if len(bias) < len(dst) {
		panic("mat: AddBiasLeakyInto32 bias shorter than dst")
	}
	addBiasLeakyGo32(dst, bias, slope)
}
