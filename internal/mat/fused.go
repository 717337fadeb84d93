package mat

import "fmt"

// MulRowInto computes dst = arow * b for a single input row: dst[j] =
// Σ_k arow[k]*b[k][j]. It runs the exact k-blocked, 4-way-unrolled,
// zero-skipping accumulation of MatMulInto restricted to one output
// row, so the result is bitwise identical to
// MatMulInto(dst1x, arow1x, b) for any worker count — the fused
// scoring engine relies on this to score (patient, drug) pairs
// without materializing the pair matrix while reproducing the batched
// path bit for bit.
//
// Runs entirely on the calling goroutine (callers partition their own
// row loops) and allocates nothing.
func MulRowInto(dst, arow []float64, b *Dense) {
	if len(arow) != b.rows || len(dst) != b.cols {
		panic(fmt.Sprintf("mat: MulRowInto shape mismatch dst[%d] = arow[%d] * %dx%d",
			len(dst), len(arow), b.rows, b.cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	K := len(arow)
	if b.cols == 1 {
		// Single-column b (e.g. a scalar-output decoder layer): the
		// j-loop of every panel has one element, so vector dispatch
		// only costs overhead. Accumulate the identical quad grouping
		// scalar-side; b's rows are consecutive elements of its data.
		var s float64
		for kb := 0; kb < K; kb += blockK {
			ke := kb + blockK
			if ke > K {
				ke = K
			}
			panel := arow[kb:ke]
			bcol := b.data[kb:ke]
			k := 0
			for ; k+3 < len(panel); k += 4 {
				a0, a1, a2, a3 := panel[k], panel[k+1], panel[k+2], panel[k+3]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				s += (a0*bcol[k] + a1*bcol[k+1]) + (a2*bcol[k+2] + a3*bcol[k+3])
			}
			for ; k < len(panel); k++ {
				if av := panel[k]; av != 0 {
					s += av * bcol[k]
				}
			}
		}
		dst[0] = s
		return
	}
	for kb := 0; kb < K; kb += blockK {
		ke := kb + blockK
		if ke > K {
			ke = K
		}
		panel := arow[kb:ke]
		k := 0
		for ; k+3 < len(panel); k += 4 {
			a0, a1, a2, a3 := panel[k], panel[k+1], panel[k+2], panel[k+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			mulAddRows4(dst, b.data[(kb+k)*b.cols:(kb+k+4)*b.cols], a0, a1, a2, a3)
		}
		for ; k < len(panel); k++ {
			av := panel[k]
			if av == 0 {
				continue
			}
			mulAddRow1(dst, b.Row(kb+k), av)
		}
	}
}

// MulRows4Into is MulRowInto for four input rows at once: a holds four
// rows of length b.Rows() back to back, and dst row r (dst[r*n :
// (r+1)*n] with n = b.Cols()) receives exactly MulRowInto(dst_r, a_r,
// b), bit for bit. Each 4-row quad of b is loaded once for all four
// rows, so scoring four inputs against one weight matrix streams the
// matrix from cache once instead of four times.
//
// Every output element keeps the identical k-blocked quad order, and
// the all-zero quad skip stays a per-row decision: a quad that is
// zero for some rows but not all runs the one-row kernel on the live
// rows only, exactly as their MulRowInto calls would.
func MulRows4Into(dst, a []float64, b *Dense) {
	K, n := b.rows, b.cols
	if len(a) != 4*K || len(dst) != 4*n {
		panic(fmt.Sprintf("mat: MulRows4Into shape mismatch dst[%d] = a[%d] * %dx%d (want 4 rows each)",
			len(dst), len(a), b.rows, b.cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	var coef [16]float64
	for kb := 0; kb < K; kb += blockK {
		ke := min(kb+blockK, K)
		k := kb
		for ; k+3 < ke; k += 4 {
			live := 0
			for r := 0; r < 4; r++ {
				q := (*[4]float64)(a[r*K+k:])
				copy(coef[4*r:], q[:])
				if q[0] != 0 || q[1] != 0 || q[2] != 0 || q[3] != 0 {
					live |= 1 << r
				}
			}
			bq := b.data[k*n : (k+4)*n]
			if live == 0xF {
				mulAddRows4x4(dst, bq, &coef)
				continue
			}
			for r := 0; r < 4; r++ {
				if live&(1<<r) != 0 {
					mulAddRows4(dst[r*n:(r+1)*n], bq, coef[4*r], coef[4*r+1], coef[4*r+2], coef[4*r+3])
				}
			}
		}
		for ; k < ke; k++ {
			for r := 0; r < 4; r++ {
				if av := a[r*K+k]; av != 0 {
					mulAddRow1(dst[r*n:(r+1)*n], b.Row(k), av)
				}
			}
		}
	}
}

// HadamardRowInto computes dst[i] = a[i]*b[i] for plain slices — the
// row-level form of HadamardInto, sharing its element formula (and
// vector kernel) so fused consumers match the batched op bitwise.
func HadamardRowInto(dst, a, b []float64) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic(fmt.Sprintf("mat: HadamardRowInto length mismatch %d vs %d vs %d", len(dst), len(a), len(b)))
	}
	hadamardSlices(dst, a, b)
}
