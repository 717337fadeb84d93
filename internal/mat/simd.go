package mat

// SIMD micro-kernels. The three accumulation patterns below are the
// inner loops of every dense matmul kernel in this package:
//
//	mulAddRows4    dst[j] += (a0*b0[j] + a1*b1[j]) + (a2*b2[j] + a3*b3[j])
//	mulAddRows4x4  mulAddRows4 for four dst rows sharing one b quad
//	mulAddRow1     dst[j] += a*b[j]
//	dot4         four-accumulator dot product (see dot4 in parallel.go)
//	dot2x4       dot4 for two a-rows against four b-rows at once
//	hadamardInto dst[i] = a[i]*b[i]
//
// On amd64 with AVX2 they dispatch to hand-written vector assembly
// (simd_amd64.s). The vector forms are bitwise identical to the scalar
// forms: lanes are independent output elements (mulAddRows4,
// mulAddRow1, hadamardInto) or exactly the four interleaved
// accumulators of the scalar code (dot4), and every lane performs the
// same IEEE-754 operations in the same order as the scalar loop. No
// FMA is used — fused multiply-add skips the intermediate rounding and
// would change results. The *Go reference implementations in this file
// are the fallback for other architectures (and for CPUs without
// AVX2), and the oracle the assembly is tested against.

// mulAddRows4Go is the scalar reference of the four-row
// multiply-accumulate. b4 holds four consecutive rows of length
// len(dst), back to back.
func mulAddRows4Go(dst, b4 []float64, a0, a1, a2, a3 float64) {
	n := len(dst)
	b0 := b4[:n]
	b1 := b4[n : 2*n]
	b2 := b4[2*n : 3*n]
	b3 := b4[3*n : 4*n]
	for j, bv := range b0 {
		dst[j] += (a0*bv + a1*b1[j]) + (a2*b2[j] + a3*b3[j])
	}
}

// mulAddRows4x4Go is the scalar reference of the four-row
// multiply-accumulate over four dst rows at once: dst holds four rows
// of length n = len(dst)/4 back to back, b4 the four b-rows of length
// n, and dst row r receives exactly mulAddRows4(dst_r, b4, a[4r],
// a[4r+1], a[4r+2], a[4r+3]). Each b quad element is read once for
// all four rows — the point of the kernel: a caller scoring four
// inputs against one weight matrix streams the weights once, not four
// times.
func mulAddRows4x4Go(dst, b4 []float64, a *[16]float64) {
	n := len(dst) / 4
	b0 := b4[:n]
	b1 := b4[n : 2*n]
	b2 := b4[2*n : 3*n]
	b3 := b4[3*n : 4*n]
	d0 := dst[:n]
	d1 := dst[n : 2*n]
	d2 := dst[2*n : 3*n]
	d3 := dst[3*n : 4*n]
	for j, v0 := range b0 {
		v1, v2, v3 := b1[j], b2[j], b3[j]
		d0[j] += (a[0]*v0 + a[1]*v1) + (a[2]*v2 + a[3]*v3)
		d1[j] += (a[4]*v0 + a[5]*v1) + (a[6]*v2 + a[7]*v3)
		d2[j] += (a[8]*v0 + a[9]*v1) + (a[10]*v2 + a[11]*v3)
		d3[j] += (a[12]*v0 + a[13]*v1) + (a[14]*v2 + a[15]*v3)
	}
}

// mulAddRow1Go is the scalar reference of the single-row
// multiply-accumulate.
func mulAddRow1Go(dst, b []float64, a float64) {
	b = b[:len(dst)]
	for j, bv := range b {
		dst[j] += a * bv
	}
}

// dot4Go is the scalar reference of the four-accumulator dot product.
// It reassociates the sum relative to the plain Dot (which the tape's
// RowSum must keep matching), so it is private to the matmul kernels.
func dot4Go(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	k := 0
	b = b[:len(a)]
	for ; k+3 < len(a); k += 4 {
		s0 += a[k] * b[k]
		s1 += a[k+1] * b[k+1]
		s2 += a[k+2] * b[k+2]
		s3 += a[k+3] * b[k+3]
	}
	for ; k < len(a); k++ {
		s0 += a[k] * b[k]
	}
	return (s0 + s1) + (s2 + s3)
}

// dot2x4LanesGo is the scalar reference of the 2x4 dot kernel's lane
// sums: a holds two rows of length K = len(a)/2 back to back, b four
// rows of length K, and lanes[4(4r+c)+l] receives dot4Go's s_l for
// a-row r and b-row c over the K&^3 quad part (dot2x4 adds the
// tail). Each dot keeps its own four accumulators, so the element order
// is dot4Go's whatever the loop nesting.
func dot2x4LanesGo(a, b []float64, lanes *[32]float64) {
	K := len(a) / 2
	q := K &^ 3
	for r := 0; r < 2; r++ {
		ar := a[r*K : r*K+q]
		for c := 0; c < 4; c++ {
			bc := b[c*K : c*K+q][:len(ar)]
			var s0, s1, s2, s3 float64
			for k := 0; k+3 < len(ar); k += 4 {
				s0 += ar[k] * bc[k]
				s1 += ar[k+1] * bc[k+1]
				s2 += ar[k+2] * bc[k+2]
				s3 += ar[k+3] * bc[k+3]
			}
			*(*[4]float64)(lanes[4*(4*r+c):]) = [4]float64{s0, s1, s2, s3}
		}
	}
}

// dot2x4 sets out[4r+c] = dot4(a_r, b_c) for the two a-rows of length
// K = len(a)/2 and the four b-rows of length K stored back to back in a
// and b. dot2x4Lanes sums the eight dots' lanes over the K&^3 quads;
// each dot then adds the K%4 tail into s0 and combines (s0+s1)+(s2+s3)
// exactly as dot4Go does.
func dot2x4(out *[8]float64, a, b []float64) {
	K := len(a) / 2
	if len(a) != 2*K || len(b) != 4*K {
		panic("mat: dot2x4 needs two a-rows and four b-rows of one length")
	}
	var lanes [32]float64
	dot2x4Lanes(a, b, &lanes)
	for r := 0; r < 2; r++ {
		for c := 0; c < 4; c++ {
			s := (*[4]float64)(lanes[4*(4*r+c):])
			s0 := s[0]
			for k := K &^ 3; k < K; k++ {
				s0 += a[r*K+k] * b[c*K+k]
			}
			out[4*r+c] = (s0 + s[1]) + (s[2] + s[3])
		}
	}
}

// hadamardIntoGo is the scalar reference of the element-wise product.
func hadamardIntoGo(dst, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// addBiasLeakyGo is the scalar reference of the fused bias-add +
// LeakyReLU epilogue: dst[i] = leaky(dst[i] + bias[i]) with
// leaky(v) = v if v > 0 else slope*v — the exact element formulas of
// AddRowInto followed by the LeakyReLU activation.
func addBiasLeakyGo(dst, bias []float64, slope float64) {
	bias = bias[:len(dst)]
	for i := range dst {
		v := dst[i] + bias[i]
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = slope * v
		}
	}
}
