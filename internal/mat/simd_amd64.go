//go:build amd64

package mat

import "os"

// useAVX2 and useAVX512 gate the vector kernels. They are detected
// once at startup (CPUID + XGETBV, see simd_amd64.s) and only ever
// disabled after that — the equivalence tests flip them to prove the
// scalar and vector paths produce identical bits. The DSSDDI_SIMD
// environment variable caps the level ("off", "avx2", or the default
// "avx512"), for deployments where 512-bit frequency licensing is a
// concern; every level produces identical bits.
var useAVX2, useAVX512 = detectSIMD()

func detectSIMD() (avx2, avx512 bool) {
	avx2 = cpuSupportsAVX2()
	avx512 = avx2 && cpuSupportsAVX512()
	switch os.Getenv("DSSDDI_SIMD") {
	case "off":
		avx2, avx512 = false, false
	case "avx2":
		avx512 = false
	}
	return avx2, avx512
}

// cpuSupportsAVX2 reports AVX2 with OS-enabled YMM state.
func cpuSupportsAVX2() bool

// cpuSupportsAVX512 reports AVX512F with OS-enabled ZMM state.
func cpuSupportsAVX512() bool

//go:noescape
func mulAddRows4AVX512(dst, b4 []float64, a0, a1, a2, a3 float64)

// The assembly kernels require len(dst) >= 1 and the b operands laid
// out exactly as their Go references document. They are only called
// through the wrappers below.

//go:noescape
func mulAddRows4AVX2(dst, b4 []float64, a0, a1, a2, a3 float64)

//go:noescape
func mulAddRows4x4AVX512(dst, b4 []float64, a *[16]float64)

//go:noescape
func mulAddRows4x4AVX2(dst, b4 []float64, a *[16]float64)

//go:noescape
func mulAddRow1AVX2(dst, b []float64, a float64)

//go:noescape
func dot4AVX2(a, b []float64) float64

//go:noescape
func dot2x4AVX2(a, b []float64, lanes *[32]float64)

//go:noescape
func hadamardIntoAVX2(dst, a, b []float64)

//go:noescape
func addBiasLeakyAVX2(dst, bias []float64, slope float64)

// mulAddRows4 computes dst[j] += (a0*b0[j] + a1*b1[j]) + (a2*b2[j] +
// a3*b3[j]) where b4 holds the four b-rows back to back. Bitwise
// identical with the vector path on or off.
func mulAddRows4(dst, b4 []float64, a0, a1, a2, a3 float64) {
	if len(b4) < 4*len(dst) {
		panic("mat: mulAddRows4 needs 4*len(dst) b values")
	}
	switch {
	case useAVX512 && len(dst) > 0:
		mulAddRows4AVX512(dst, b4, a0, a1, a2, a3)
	case useAVX2 && len(dst) > 0:
		mulAddRows4AVX2(dst, b4, a0, a1, a2, a3)
	default:
		mulAddRows4Go(dst, b4, a0, a1, a2, a3)
	}
}

// mulAddRows4x4 is mulAddRows4 for four dst rows at once: dst holds
// four rows of length n = len(dst)/4 back to back, and row r receives
// (a[4r]*b0[j] + a[4r+1]*b1[j]) + (a[4r+2]*b2[j] + a[4r+3]*b3[j]).
// Bitwise identical to four mulAddRows4 calls at every level.
func mulAddRows4x4(dst, b4 []float64, a *[16]float64) {
	if len(dst)%4 != 0 || len(b4) < len(dst) {
		panic("mat: mulAddRows4x4 needs four dst rows and 4*n b values")
	}
	switch {
	case useAVX512 && len(dst) > 0:
		mulAddRows4x4AVX512(dst, b4, a)
	case useAVX2 && len(dst) > 0:
		mulAddRows4x4AVX2(dst, b4, a)
	default:
		mulAddRows4x4Go(dst, b4, a)
	}
}

// mulAddRow1 computes dst[j] += a*b[j].
func mulAddRow1(dst, b []float64, a float64) {
	if useAVX2 && len(dst) > 0 {
		mulAddRow1AVX2(dst, b[:len(dst)], a)
		return
	}
	mulAddRow1Go(dst, b, a)
}

// dot4 is the four-accumulator dot product of the transposed-matmul
// kernels.
func dot4(a, b []float64) float64 {
	if useAVX2 && len(a) >= 4 {
		return dot4AVX2(a, b[:len(a)])
	}
	return dot4Go(a, b)
}

// dot2x4Lanes fills lanes with the 2x4 dot kernel's lane sums (see
// dot2x4LanesGo). One 4-lane vector form serves the avx2 and avx512
// levels: dot4's lane split is fixed at four.
func dot2x4Lanes(a, b []float64, lanes *[32]float64) {
	if useAVX2 && len(a) >= 8 {
		dot2x4AVX2(a, b, lanes)
		return
	}
	dot2x4LanesGo(a, b, lanes)
}

// AddBiasLeakyInto computes dst[i] = leaky(dst[i] + bias[i]) in one
// fused, branch-free vector pass — the epilogue of a linear layer
// followed by LeakyReLU, bitwise identical to the separate bias-add
// and activation steps.
func AddBiasLeakyInto(dst, bias []float64, slope float64) {
	if len(bias) < len(dst) {
		panic("mat: AddBiasLeakyInto bias shorter than dst")
	}
	if useAVX2 && len(dst) > 0 {
		addBiasLeakyAVX2(dst, bias[:len(dst)], slope)
		return
	}
	addBiasLeakyGo(dst, bias, slope)
}

// hadamardSlices computes dst[i] = a[i]*b[i].
func hadamardSlices(dst, a, b []float64) {
	if useAVX2 && len(dst) > 0 {
		hadamardIntoAVX2(dst, a[:len(dst)], b[:len(dst)])
		return
	}
	hadamardIntoGo(dst, a, b)
}

// SIMD names the active vector instruction set ("avx512", "avx2" or
// "none") so benchmark records can note what backed the kernels.
func SIMD() string {
	switch {
	case useAVX512:
		return "avx512"
	case useAVX2:
		return "avx2"
	default:
		return "none"
	}
}

// simdEnabled and setSIMD are test hooks: the equivalence tests force
// each level to prove they all produce the same bits. setSIMD takes a
// SIMD() name ("avx512", "avx2" or "none") and caps the level there,
// within what the CPU supports. Not safe to flip while kernels are
// running on other goroutines.
func simdEnabled() bool { return useAVX2 }

func setSIMD(level string) {
	useAVX2 = level != "none" && cpuSupportsAVX2()
	useAVX512 = level == "avx512" && useAVX2 && cpuSupportsAVX512()
}
