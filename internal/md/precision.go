package md

import (
	"fmt"

	"dssddi/internal/mat"
	"dssddi/internal/nn"
)

// This file is the precision control of the serving engine. The f64
// model is always the source of truth and the accuracy oracle; the f32
// representation is derived from it deterministically (IEEE
// round-to-nearest-even) and can be rebuilt or dropped at any time
// without touching the trained parameters. Scoring dispatches on the
// derived state: pd32 != nil selects the f32 operands and logit kernel
// inside the one tile walk of score.go.

// Precision selects the serving-side numeric representation of the
// frozen model.
type Precision uint8

const (
	// F64 scores through the full float64 model — the accuracy oracle.
	F64 Precision = iota
	// F32 scores through float32 copies of the frozen drug
	// representations, treatment rows and decoder, on the eight-lane
	// f32 SIMD kernels. Roughly half the resident bytes of F64; the
	// divergence from the oracle is characterized and gated (see
	// precision_test.go and benchdiff -precision-gate).
	F32
)

// String returns the flag spelling of the precision.
func (p Precision) String() string {
	switch p {
	case F32:
		return "f32"
	default:
		return "f64"
	}
}

// ParsePrecision maps a -precision flag value to a Precision.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "f64":
		return F64, nil
	case "f32":
		return F32, nil
	}
	return F64, fmt.Errorf("md: unknown precision %q (want f64 or f32)", s)
}

// SetPrecision derives (or drops, for F64) the quantized serving
// representation of the frozen model: float32 copies of the final drug
// representations, the per-cluster treatment rows and the fused
// decoder. The derivation is deterministic, so a given snapshot always
// yields the same blobs. It must not run concurrently with scoring —
// the serving layer applies it to a freshly loaded model before
// publishing the epoch, which also makes a hot reload switch precision
// atomically. Training invalidates the derived state (back to F64). Re-requesting
// the active precision is a read-only no-op, so re-publishing a system
// that is still serving an older epoch at the same precision never
// writes fields that epoch's in-flight requests are reading.
func (m *Model) SetPrecision(p Precision) error {
	if p == m.prec {
		return nil
	}
	if p == F64 {
		m.prec, m.pd32, m.drugCache32, m.trow32 = F64, nil, nil, nil
		return nil
	}
	if m.pd == nil {
		return fmt.Errorf("md: precision %v needs a fusable decoder (this model scores through the batched reference path)", p)
	}
	if m.drugCache == nil {
		return fmt.Errorf("md: precision %v needs a frozen model — train to completion or load a snapshot first", p)
	}
	trow32 := make([][]float32, len(m.Treatment.clusterRow))
	for c, r := range m.Treatment.clusterRow {
		trow32[c] = mat.Floats32(r)
	}
	m.drugCache32, m.trow32, m.pd32, m.prec = mat.Dense32From(m.drugCache), trow32, nn.NewPairDecoder32(m.pd), p
	return nil
}

// Precision reports the active serving precision.
func (m *Model) Precision() Precision { return m.prec }

// ResidentModelBytes returns the explicit resident byte count of the
// active serving representation — the frozen drug representations, the
// per-cluster treatment rows and the fused decoder at the active
// precision. This is the accounting /metricsz and the bench reports
// record: measured from the blobs themselves, not from runtime.MemStats.
func (m *Model) ResidentModelBytes() int {
	if m.pd32 != nil {
		b := m.drugCache32.Bytes() + m.pd32.Bytes()
		for _, r := range m.trow32 {
			b += 4 * len(r)
		}
		return b
	}
	h := m.drugReps()
	b := 8 * h.Rows() * h.Cols()
	if m.pd != nil {
		b += m.pd.Bytes()
	}
	for _, r := range m.Treatment.clusterRow {
		b += 8 * len(r)
	}
	return b
}
