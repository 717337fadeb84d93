//go:build amd64

package mat

// The float32 kernels share the useAVX2/useAVX512 gates (and the
// DSSDDI_SIMD cap) with the float64 set in simd_amd64.go: one
// environment knob governs both precisions, and every level produces
// identical f32 bits.

//go:noescape
func mulAddRows4AVX512F32(dst, b4 []float32, a0, a1, a2, a3 float32)

//go:noescape
func mulAddRows4AVX2F32(dst, b4 []float32, a0, a1, a2, a3 float32)

//go:noescape
func mulAddRows4x4AVX512F32(dst, b4 []float32, a *[16]float32)

//go:noescape
func mulAddRows4x4AVX2F32(dst, b4 []float32, a *[16]float32)

//go:noescape
func mulAddRow1AVX2F32(dst, b []float32, a float32)

//go:noescape
func dot8AVX2F32(a, b []float32) float32

//go:noescape
func addBiasLeakyAVX2F32(dst, bias []float32, slope float32)

// mulAddRows432 computes dst[j] += (a0*b0[j] + a1*b1[j]) + (a2*b2[j] +
// a3*b3[j]) where b4 holds the four b-rows back to back. Bitwise
// identical with the vector path on or off.
func mulAddRows432(dst, b4 []float32, a0, a1, a2, a3 float32) {
	if len(b4) < 4*len(dst) {
		panic("mat: mulAddRows432 needs 4*len(dst) b values")
	}
	switch {
	case useAVX512 && len(dst) > 0:
		mulAddRows4AVX512F32(dst, b4, a0, a1, a2, a3)
	case useAVX2 && len(dst) > 0:
		mulAddRows4AVX2F32(dst, b4, a0, a1, a2, a3)
	default:
		mulAddRows4Go32(dst, b4, a0, a1, a2, a3)
	}
}

// mulAddRows4x4x32 is mulAddRows432 for four dst rows at once, the
// float32 twin of mulAddRows4x4. Bitwise identical to four
// mulAddRows432 calls at every level.
func mulAddRows4x4x32(dst, b4 []float32, a *[16]float32) {
	if len(dst)%4 != 0 || len(b4) < len(dst) {
		panic("mat: mulAddRows4x4x32 needs four dst rows and 4*n b values")
	}
	switch {
	case useAVX512 && len(dst) > 0:
		mulAddRows4x4AVX512F32(dst, b4, a)
	case useAVX2 && len(dst) > 0:
		mulAddRows4x4AVX2F32(dst, b4, a)
	default:
		mulAddRows4x4Go32(dst, b4, a)
	}
}

// mulAddRow132 computes dst[j] += a*b[j].
func mulAddRow132(dst, b []float32, a float32) {
	if useAVX2 && len(dst) > 0 {
		mulAddRow1AVX2F32(dst, b[:len(dst)], a)
		return
	}
	mulAddRow1Go32(dst, b, a)
}

// dot8x32 is the eight-accumulator float32 dot product behind Dot32.
func dot8x32(a, b []float32) float32 {
	if useAVX2 && len(a) >= 8 {
		return dot8AVX2F32(a, b[:len(a)])
	}
	return dot8Go32(a, b)
}

// AddBiasLeakyInto32 computes dst[i] = leaky(dst[i] + bias[i]) in one
// fused, branch-free vector pass — the float32 twin of
// AddBiasLeakyInto, bitwise identical to the separate bias-add and
// activation steps.
func AddBiasLeakyInto32(dst, bias []float32, slope float32) {
	if len(bias) < len(dst) {
		panic("mat: AddBiasLeakyInto32 bias shorter than dst")
	}
	if useAVX2 && len(dst) > 0 {
		addBiasLeakyAVX2F32(dst, bias[:len(dst)], slope)
		return
	}
	addBiasLeakyGo32(dst, bias, slope)
}
