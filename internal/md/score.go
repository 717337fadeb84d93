package md

import (
	"fmt"
	"sync"

	"dssddi/internal/mat"
	"dssddi/internal/metrics"
	"dssddi/internal/par"
)

// This file is the tiled, fused scoring engine — the cold path behind
// Scores, ScoresInto, ScoresRowsInto and TopKScores, and (through
// inductive.go) ScoresForInto and TopKScoresFor.
//
// The batched reference path (scoresReference in mdgcn.go) scores P
// patients against nD drugs by materializing three (P·nD × dim)
// intermediates — gathered patient rows, gathered drug rows and their
// Hadamard product — plus a (P·nD × dim+1) concatenation, before a
// single decoder forward. The engine instead walks (patient, drug
// tile) units and decodes the drugs of a tile four at a time through
// nn.PairDecoder.Logits4: four dim+1 scratch rows replace all four
// matrices, so peak memory is O(tile) instead of O(P·nD·dim) and the
// steady state allocates nothing (scratch is pooled and reused across
// calls). Four drugs share each pass over the decoder's layer-1
// weights (mat.MulRows4Into): at serving widths those weights do not
// fit in L1 (385x384 f64 is 1.18 MB), and one pass per drug re-read
// them from L2 for every drug.
//
// At F64 every pair's value is bitwise identical to the reference path
// for any worker count: the fused kernels reproduce the batched kernels'
// per-element accumulation order exactly (see mat.MulRowInto and
// nn.PairDecoder), units partition the output disjointly, and the
// equivalence tests in score_test.go enforce it. Grouping drugs does
// not change that: each drug's hidden row sees the identical k-blocked
// quad order, and the all-zero quad skip is still decided per drug
// (mat.MulRows4Into falls back to the one-row kernel for the live rows
// of a quad that is zero for only some of the four).
//
// The same walk serves the f32 representation SetPrecision derives.
// Precision decides exactly two things: the per-patient operands
// (embedRow: f64 hidden row and treatment row, or both narrowed to
// f32) and the per-tile logit call (logitTile: nn.PairDecoder or the
// fused eight-lane nn.PairDecoder32, both four drugs per call).
// Everything else — the tile walk, the exp-skipping top-k selection
// and the pooled scratch — is shared.
// Logits come back as float64 at either precision, so the selector,
// the sigmoid and every caller-visible type are unchanged. The f32
// path has no bitwise guarantee against the reference; it is
// characterized against the f64 oracle by max absolute score
// divergence and top-k ranking invariance (precision_test.go,
// benchdiff -precision-gate).

// drugTile is the drug-tile width of the scoring engine: one tile of
// final drug representations (64 rows of Hidden floats) stays
// cache-hot while a unit scores it, and it is the granularity at
// which TopKScores folds scores into its running selection. Within a
// tile, drugs go through in groups of four (one layer-1 weight pass
// per group); only the tail of the last tile, nD%4 drugs, is scored
// one at a time.
const drugTile = 64

// scoreScratch is the per-goroutine working set of the engine: the
// patient hidden representation and its f32 narrowing, the encoder
// ping-pong buffers, the fused decoders' pair scratch, one score tile
// and a top-k selection.
type scoreScratch struct {
	hp    []float64
	hp32  []float32
	buf1  []float64
	buf2  []float64
	inter []float64
	hid   []float64
	hid32 []float32
	tile  []float64
	sel   metrics.Selector
}

func (m *Model) getScratch() *scoreScratch {
	sc, _ := m.scratch.Get().(*scoreScratch)
	if sc == nil {
		d, h := m.pd.Dims()
		w := m.fcPat.MaxWidth()
		sc = &scoreScratch{
			hp:    make([]float64, m.fcPat.OutDim()),
			hp32:  make([]float32, m.fcPat.OutDim()),
			buf1:  make([]float64, w),
			buf2:  make([]float64, w),
			inter: make([]float64, 4*(d+1)),
			hid:   make([]float64, 4*h),
			hid32: make([]float32, 4*h),
			tile:  make([]float64, drugTile),
		}
	}
	return sc
}

func (m *Model) putScratch(sc *scoreScratch) { m.scratch.Put(sc) }

// embedRow encodes dataset patient p into sc and returns the patient's
// operands at the active precision: the f64 hidden row plus the shared
// treatment row, or the hidden row narrowed to f32 plus the cluster's
// f32 treatment row. The result aliases sc and model state and is
// valid until sc is reused.
func (m *Model) embedRow(sc *scoreScratch, p int) PatientEmbedding {
	x := m.Data.X.Row(p)
	m.fcPat.ForwardRow(sc.hp, x, sc.buf1, sc.buf2)
	c := m.Treatment.NearestCluster(x)
	if m.pd32 != nil {
		for i, v := range sc.hp {
			sc.hp32[i] = float32(v)
		}
		return PatientEmbedding{H32: sc.hp32, T32: m.trow32[c]}
	}
	return PatientEmbedding{H: sc.hp, T: m.Treatment.clusterRow[c]}
}

// logitTile writes the decoder logits of drugs [vLo, vLo+len(dst)) for
// patient e into dst — through the f64 kernel over hDrug, or through
// the fused f32 kernel over the narrowed drug matrix on a quantized
// model. It is the engine's only precision branch on the scoring side.
// Drugs go through in groups of four (Logits4: one pass over the
// layer-1 weights per group); a tile tail of fewer than four drugs
// takes the one-pair Logit. Both produce the same bits per drug.
func (m *Model) logitTile(dst []float64, sc *scoreScratch, hDrug *mat.Dense, e *PatientEmbedding, vLo int) {
	i := 0
	if m.pd32 != nil {
		c := m.drugCache32
		for ; i+4 <= len(dst); i += 4 {
			v := vLo + i
			m.pd32.Logits4(dst[i:i+4], e.H32, [4][]float32{c.Row(v), c.Row(v + 1), c.Row(v + 2), c.Row(v + 3)}, e.T32[v:v+4], sc.hid32)
		}
		for ; i < len(dst); i++ {
			v := vLo + i
			dst[i] = m.pd32.Logit(e.H32, c.Row(v), e.T32[v], sc.hid32)
		}
		return
	}
	for ; i+4 <= len(dst); i += 4 {
		v := vLo + i
		m.pd.Logits4(dst[i:i+4], e.H, [4][]float64{hDrug.Row(v), hDrug.Row(v + 1), hDrug.Row(v + 2), hDrug.Row(v + 3)}, e.T[v:v+4], sc.inter, sc.hid)
	}
	for ; i < len(dst); i++ {
		v := vLo + i
		dst[i] = m.pd.Logit(e.H, hDrug.Row(v), e.T[v], sc.inter, sc.hid)
	}
}

// scoreTile is logitTile followed by the sigmoid: the full scores the
// ranking-free entry points return.
func (m *Model) scoreTile(dst []float64, sc *scoreScratch, hDrug *mat.Dense, e *PatientEmbedding, vLo int) {
	m.logitTile(dst, sc, hDrug, e, vLo)
	for i, logit := range dst {
		dst[i] = mat.Sigmoid(logit)
	}
}

// scoreTask carries one scoring invocation through the worker pool.
// Work units are (patient, drug tile) pairs, so a lone patient still
// fans out across cores; each unit owns a disjoint slice of its
// output row, keeping any partition bitwise identical. hdr is the
// task-owned row-header buffer ScoresInto builds its destination
// views in, reused across calls.
type scoreTask struct {
	m        *Model
	patients []int
	rows     [][]float64
	hdr      [][]float64
	hDrug    *mat.Dense
	tiles    int
}

var scoreTaskPool = sync.Pool{New: func() any { return new(scoreTask) }}

// Chunk implements par.Worker.
func (t *scoreTask) Chunk(lo, hi int) {
	sc := t.m.getScratch()
	nD := t.m.Data.NumDrugs()
	cur := -1 // a patient's tiles are contiguous in u: encode once, score many
	var e PatientEmbedding
	for u := lo; u < hi; u++ {
		if pi := u / t.tiles; pi != cur {
			cur = pi
			e = t.m.embedRow(sc, t.patients[pi])
		}
		vLo := (u % t.tiles) * drugTile
		t.m.scoreTile(t.rows[cur][vLo:min(vLo+drugTile, nD)], sc, t.hDrug, &e, vLo)
	}
	t.m.putScratch(sc)
}

// runScore drives the engine over the given patients and recycles the
// task. rows[i] must have length NumDrugs.
func (m *Model) runScore(t *scoreTask, rows [][]float64, patients []int) {
	if len(patients) > 0 {
		t.m, t.patients, t.rows, t.hDrug = m, patients, rows, m.drugReps()
		t.tiles = (m.Data.NumDrugs() + drugTile - 1) / drugTile
		par.Run(len(patients)*t.tiles, 1, t)
	}
	for i := range t.hdr {
		t.hdr[i] = nil // keep the pooled header buffer, drop what it pointed at
	}
	t.m, t.patients, t.rows, t.hDrug = nil, nil, nil, nil
	scoreTaskPool.Put(t)
}

// ScoresInto is the scratch-reusing form of Scores: it fills dst
// (len(patients) x NumDrugs) in place, allocating nothing in the
// steady state. dst rows receive the same bits Scores would return.
func (m *Model) ScoresInto(dst *mat.Dense, patients []int) {
	if dst.Rows() != len(patients) || dst.Cols() != m.Data.NumDrugs() {
		panic(fmt.Sprintf("md: ScoresInto shape mismatch dst %dx%d for %d patients x %d drugs",
			dst.Rows(), dst.Cols(), len(patients), m.Data.NumDrugs()))
	}
	if m.pd == nil { // non-decomposable decoder: batched reference path
		dst.CopyFrom(m.scoresReference(patients))
		return
	}
	t := scoreTaskPool.Get().(*scoreTask)
	hdr := t.hdr[:0]
	for i := range patients {
		hdr = append(hdr, dst.Row(i))
	}
	t.hdr = hdr
	m.runScore(t, hdr, patients)
}

// ScoresRowsInto fills one caller-owned row per patient — the entry
// point of System.ScoresInto, letting a caller recycle row buffers
// across calls instead of materializing a matrix per call. Each
// rows[i] must have length NumDrugs.
func (m *Model) ScoresRowsInto(rows [][]float64, patients []int) {
	if len(rows) != len(patients) {
		panic(fmt.Sprintf("md: ScoresRowsInto got %d rows for %d patients", len(rows), len(patients)))
	}
	nD := m.Data.NumDrugs()
	for i, r := range rows {
		if len(r) != nD {
			panic(fmt.Sprintf("md: ScoresRowsInto row %d has length %d, want %d", i, len(r), nD))
		}
	}
	if m.pd == nil {
		ref := m.scoresReference(patients)
		for i, r := range rows {
			copy(r, ref.Row(i))
		}
		return
	}
	m.runScore(scoreTaskPool.Get().(*scoreTask), rows, patients)
}

// TopKScores scores every drug for one patient tile by tile,
// maintaining a size-k selection instead of producing the full row
// and sorting it — the single-patient cold path behind Suggest. The
// returned ids/scores are ordered exactly like
// metrics.TopK(Scores(patient).Row(0), k) with the identical score
// bits; only the full-row materialization is gone. The returned
// slices are the caller's to keep.
func (m *Model) TopKScores(patient, k int) (ids []int, scores []float64) {
	if m.pd == nil {
		return topKOfRow(m.scoresReference([]int{patient}).Row(0), k)
	}
	sc := m.getScratch()
	e := m.embedRow(sc, patient)
	ids, scores = m.topKSelect(sc, m.drugReps(), &e, k)
	m.putScratch(sc)
	return ids, scores
}

// topKOfRow ranks a fully materialized score row — the reference-path
// form of the streamed selection.
func topKOfRow(row []float64, k int) (ids []int, scores []float64) {
	for _, v := range metrics.TopK(row, k) {
		ids = append(ids, v)
		scores = append(scores, row[v])
	}
	return ids, scores
}

// topKSelect streams drug tiles for patient e, folding logits into a
// size-k selection — the shared tail of TopKScores and TopKScoresFor.
func (m *Model) topKSelect(sc *scoreScratch, hDrug *mat.Dense, e *PatientEmbedding, k int) (ids []int, scores []float64) {
	sc.sel.Reset(k)
	nD := m.Data.NumDrugs()
	for vLo := 0; vLo < nD; vLo += drugTile {
		tile := sc.tile[:min(drugTile, nD-vLo)]
		m.logitTile(tile, sc, hDrug, e, vLo)
		for i, logit := range tile {
			// The selection ranks sigmoid scores, but the sigmoid is
			// monotone non-decreasing, so a logit at or below the k-th
			// retained item's logit (carried as the selector aux value)
			// cannot displace anything — skip its exp entirely. Ranks
			// and retained score bits are unchanged: every retained
			// item's score is still mat.Sigmoid of its logit.
			if sc.sel.Full() && logit <= sc.sel.LastAux() {
				continue
			}
			sc.sel.PushAux(vLo+i, mat.Sigmoid(logit), logit)
		}
	}
	return sc.sel.AppendTo(nil, nil)
}
