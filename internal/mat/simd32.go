package mat

// float32 SIMD micro-kernels — the serving engine's quantized twins of
// the float64 kernels in simd.go. The accumulation patterns mirror the
// f64 set (an AVX2 ymm holds 8 float32 lanes instead of 4 float64):
//
//	mulAddRows4x32   dst[j] += (a0*b0[j] + a1*b1[j]) + (a2*b2[j] + a3*b3[j])
//	mulAddRows4x4x32 mulAddRows4x32 for four dst rows sharing one b quad
//	mulAddRow1x32    dst[j] += a*b[j]
//	dot8x32          eight-accumulator dot product
//	addBiasLeakyx32  dst[i] = leaky(dst[i] + bias[i])
//
// The same discipline as the f64 kernels applies: no FMA (a fused
// multiply-add skips the intermediate rounding and would make the
// vector path diverge from the scalar fallback), lanes are independent
// output elements (or dot8's exact eight interleaved accumulators),
// and scalar tails replicate the same operation grouping — so the
// assembly is bitwise identical to these Go references for every
// input, and a server answers the same f32 bits whether DSSDDI_SIMD
// forces the kernels off or not. The f32 path as a whole is NOT
// bitwise-equal to the f64 path; its divergence from the f64 oracle
// is characterized and gated separately (see internal/md and
// cmd/benchdiff -precision-gate).

// mulAddRows4Go32 is the scalar reference of the four-row float32
// multiply-accumulate. b4 holds four consecutive rows of length
// len(dst), back to back.
func mulAddRows4Go32(dst, b4 []float32, a0, a1, a2, a3 float32) {
	n := len(dst)
	b0 := b4[:n]
	b1 := b4[n : 2*n]
	b2 := b4[2*n : 3*n]
	b3 := b4[3*n : 4*n]
	for j, bv := range b0 {
		dst[j] += (a0*bv + a1*b1[j]) + (a2*b2[j] + a3*b3[j])
	}
}

// mulAddRows4x4Go32 is the scalar reference of the float32 four-row
// multiply-accumulate over four dst rows at once — the twin of
// mulAddRows4x4Go: dst row r receives exactly mulAddRows4Go32(dst_r,
// b4, a[4r], a[4r+1], a[4r+2], a[4r+3]).
func mulAddRows4x4Go32(dst, b4 []float32, a *[16]float32) {
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

// mulAddRow1Go32 is the scalar reference of the single-row float32
// multiply-accumulate.
func mulAddRow1Go32(dst, b []float32, a float32) {
	b = b[:len(dst)]
	for j, bv := range b {
		dst[j] += a * bv
	}
}

// dot8Go32 is the scalar reference of the eight-accumulator float32
// dot product: accumulator s_i is vector lane i of the AVX2 kernel,
// the tail adds into s0, and the final combine matches the kernel's
// in-register reduction order exactly.
func dot8Go32(a, b []float32) float32 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	k := 0
	b = b[:len(a)]
	for ; k+7 < len(a); k += 8 {
		s0 += a[k] * b[k]
		s1 += a[k+1] * b[k+1]
		s2 += a[k+2] * b[k+2]
		s3 += a[k+3] * b[k+3]
		s4 += a[k+4] * b[k+4]
		s5 += a[k+5] * b[k+5]
		s6 += a[k+6] * b[k+6]
		s7 += a[k+7] * b[k+7]
	}
	for ; k < len(a); k++ {
		s0 += a[k] * b[k]
	}
	return ((s0 + s2) + (s1 + s3)) + ((s4 + s6) + (s5 + s7))
}

// addBiasLeakyGo32 is the scalar reference of the fused float32
// bias-add + LeakyReLU epilogue: dst[i] = leaky(dst[i] + bias[i]) with
// leaky(v) = v if v > 0 else slope*v.
func addBiasLeakyGo32(dst, bias []float32, slope float32) {
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
