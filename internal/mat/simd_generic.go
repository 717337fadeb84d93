//go:build !amd64

package mat

// Non-amd64 architectures run the portable reference kernels.

const useAVX2 = false

func mulAddRows4(dst, b4 []float64, a0, a1, a2, a3 float64) {
	if len(b4) < 4*len(dst) {
		panic("mat: mulAddRows4 needs 4*len(dst) b values")
	}
	mulAddRows4Go(dst, b4, a0, a1, a2, a3)
}

func mulAddRows4x4(dst, b4 []float64, a *[16]float64) {
	if len(dst)%4 != 0 || len(b4) < len(dst) {
		panic("mat: mulAddRows4x4 needs four dst rows and 4*n b values")
	}
	mulAddRows4x4Go(dst, b4, a)
}

func mulAddRow1(dst, b []float64, a float64) { mulAddRow1Go(dst, b, a) }

func dot4(a, b []float64) float64 { return dot4Go(a, b) }

func dot2x4Lanes(a, b []float64, lanes *[32]float64) { dot2x4LanesGo(a, b, lanes) }

func hadamardSlices(dst, a, b []float64) { hadamardIntoGo(dst, a, b) }

// AddBiasLeakyInto computes dst[i] = leaky(dst[i] + bias[i]) — the
// fused linear-layer epilogue, scalar on this architecture.
func AddBiasLeakyInto(dst, bias []float64, slope float64) {
	if len(bias) < len(dst) {
		panic("mat: AddBiasLeakyInto bias shorter than dst")
	}
	addBiasLeakyGo(dst, bias, slope)
}

// SIMD names the active vector instruction set.
func SIMD() string { return "none" }

func simdEnabled() bool { return false }

func setSIMD(string) {}
