package mat

import "fmt"

// Dense32 is a row-major dense matrix of float32 — the serving
// engine's quantized representation of frozen model state (drug
// representations, decoder weights, treatment rows). It is
// deliberately minimal: the f32 path is inference-only, so Dense32
// carries just the accessors the fused kernels need.
type Dense32 struct {
	rows, cols int
	data       []float32
}

// New32 returns a zeroed rows x cols float32 matrix.
func New32(rows, cols int) *Dense32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Dense32{rows: rows, cols: cols, data: make([]float32, rows*cols)}
}

// Dense32From converts m to float32, rounding each element to the
// nearest representable value (IEEE round-to-nearest-even — the
// conversion is deterministic, so the same snapshot always derives the
// same f32 blob).
func Dense32From(m *Dense) *Dense32 {
	out := New32(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = float32(v)
	}
	return out
}

// Rows returns the number of rows.
func (m *Dense32) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense32) Cols() int { return m.cols }

// Data returns the underlying row-major backing slice.
func (m *Dense32) Data() []float32 { return m.data }

// Row returns row i as a slice sharing the matrix's backing store.
func (m *Dense32) Row(i int) []float32 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Bytes returns the resident size of the matrix payload — the explicit
// byte accounting the serving memory metrics report.
func (m *Dense32) Bytes() int { return 4 * len(m.data) }

// Floats32 converts src to a fresh []float32.
func Floats32(src []float64) []float32 {
	out := make([]float32, len(src))
	for i, v := range src {
		out[i] = float32(v)
	}
	return out
}

// Dot32 is the float32 dot product of two equal-length vectors,
// accumulated through the eight-lane vector kernel (bitwise identical
// with the vector path on or off).
func Dot32(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot32 length mismatch %d vs %d", len(a), len(b)))
	}
	return dot8x32(a, b)
}

// MulRowHadamardInto32 is the fused pair-decode input projection:
//
//	dst[j] = Σ_{k<d} (x[k]*y[k]) * b[k][j]  +  t * b[d][j]
//
// with d = len(x) and b a (d+1) x len(dst) weight matrix — the first
// decoder layer applied to concat(x⊙y, t) without materializing the
// Hadamard product or the concatenation. The per-quad coefficients are
// formed scalar-side and fed straight to the mulAddRows4 kernel, so
// the whole layer runs in four-row vector steps. Zero coefficient
// quads are skipped like MulRowInto's.
func MulRowHadamardInto32(dst, x, y []float32, t float32, b *Dense32) {
	d := len(x)
	if len(y) != d || b.rows != d+1 || len(dst) != b.cols {
		panic(fmt.Sprintf("mat: MulRowHadamardInto32 shape mismatch dst[%d] = concat(x[%d]⊙y[%d], t) * %dx%d",
			len(dst), len(x), len(y), b.rows, b.cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	k := 0
	for ; k+3 < d; k += 4 {
		a0 := x[k] * y[k]
		a1 := x[k+1] * y[k+1]
		a2 := x[k+2] * y[k+2]
		a3 := x[k+3] * y[k+3]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		mulAddRows432(dst, b.data[k*b.cols:(k+4)*b.cols], a0, a1, a2, a3)
	}
	for ; k < d; k++ {
		if av := x[k] * y[k]; av != 0 {
			mulAddRow132(dst, b.Row(k), av)
		}
	}
	if t != 0 {
		mulAddRow132(dst, b.Row(d), t)
	}
}

// MulRowsHadamard4Into32 is MulRowHadamardInto32 for four pairs that
// share the operand x: dst holds four rows of length b.Cols() back to
// back, and dst row r receives exactly MulRowHadamardInto32(dst_r, x,
// y[r], t[r], b), bit for bit. Each 4-row quad of b is loaded once for
// all four pairs, so the decoder weights stream from cache once per
// four pairs instead of once per pair. The all-zero coefficient-quad
// skip stays a per-row decision: a quad that is zero for some rows but
// not all runs the one-row kernel on the live rows only.
func MulRowsHadamard4Into32(dst, x []float32, y [4][]float32, t []float32, b *Dense32) {
	d, n := len(x), b.cols
	if len(t) != 4 || b.rows != d+1 || len(dst) != 4*n ||
		len(y[0]) != d || len(y[1]) != d || len(y[2]) != d || len(y[3]) != d {
		panic(fmt.Sprintf("mat: MulRowsHadamard4Into32 shape mismatch dst[%d] = concat(x[%d]⊙y[%d|%d|%d|%d], t[%d]) * %dx%d",
			len(dst), d, len(y[0]), len(y[1]), len(y[2]), len(y[3]), len(t), b.rows, b.cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	var coef [16]float32
	k := 0
	for ; k+3 < d; k += 4 {
		xq := (*[4]float32)(x[k:])
		live := 0
		for r := 0; r < 4; r++ {
			yq := (*[4]float32)(y[r][k:])
			c := (*[4]float32)(coef[4*r:])
			c[0], c[1], c[2], c[3] = xq[0]*yq[0], xq[1]*yq[1], xq[2]*yq[2], xq[3]*yq[3]
			if c[0] != 0 || c[1] != 0 || c[2] != 0 || c[3] != 0 {
				live |= 1 << r
			}
		}
		bq := b.data[k*n : (k+4)*n]
		if live == 0xF {
			mulAddRows4x4x32(dst, bq, &coef)
			continue
		}
		for r := 0; r < 4; r++ {
			if live&(1<<r) != 0 {
				mulAddRows432(dst[r*n:(r+1)*n], bq, coef[4*r], coef[4*r+1], coef[4*r+2], coef[4*r+3])
			}
		}
	}
	for ; k < d; k++ {
		for r := 0; r < 4; r++ {
			if av := x[k] * y[r][k]; av != 0 {
				mulAddRow132(dst[r*n:(r+1)*n], b.Row(k), av)
			}
		}
	}
	for r, tr := range t {
		if tr != 0 {
			mulAddRow132(dst[r*n:(r+1)*n], b.Row(d), tr)
		}
	}
}
