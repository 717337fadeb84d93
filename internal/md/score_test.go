package md

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"dssddi/internal/mat"
	"dssddi/internal/metrics"
)

// scoreTestModel trains one small MDGCN (with relation embeddings, so
// the full h'_v path is exercised) shared by the engine tests.
var (
	scoreModelOnce sync.Once
	scoreModel     *Model
)

func trainedScoreModel(t *testing.T) *Model {
	t.Helper()
	scoreModelOnce.Do(func() {
		d := smallDataset(41)
		relEmb := mat.RandNormal(rand.New(rand.NewSource(42)), d.NumDrugs(), 12, 0.5)
		cfg := DefaultConfig()
		cfg.Hidden = 24
		cfg.Epochs = 25
		cfg.SelectOnVal = false
		m := NewModel(d, relEmb, cfg)
		m.Train()
		scoreModel = m
	})
	if scoreModel == nil {
		t.Fatal("shared scoring model failed to train")
	}
	return scoreModel
}

func bitsEqualRows(t *testing.T, ctx string, got, want *mat.Dense) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", ctx, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	g, w := got.Data(), want.Data()
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s: element %d: fused %v != reference %v", ctx, i, g[i], w[i])
		}
	}
}

// TestFusedScoresMatchReference is the engine's core guarantee: the
// tiled fused path produces exactly the reference path's bits — for
// batch and single-patient queries, at serial and parallel worker
// counts, through Scores, ScoresInto and ScoresRowsInto.
func TestFusedScoresMatchReference(t *testing.T) {
	m := trainedScoreModel(t)
	d := m.Data
	queries := [][]int{
		d.Test,
		d.Val,
		{d.Test[0]},
		{d.Train[3], d.Test[1], d.Val[0], d.Test[1]}, // duplicates and observed patients
	}
	for _, workers := range []int{1, 4} {
		mat.SetWorkers(workers)
		for qi, patients := range queries {
			want := m.scoresReference(patients)

			bitsEqualRows(t, "Scores", m.Scores(patients), want)

			dst := mat.New(len(patients), d.NumDrugs())
			m.ScoresInto(dst, patients)
			bitsEqualRows(t, "ScoresInto", dst, want)

			rows := make([][]float64, len(patients))
			for i := range rows {
				rows[i] = make([]float64, d.NumDrugs())
			}
			m.ScoresRowsInto(rows, patients)
			for i := range rows {
				for j, v := range rows[i] {
					if math.Float64bits(v) != math.Float64bits(want.At(i, j)) {
						t.Fatalf("workers=%d query %d ScoresRowsInto (%d,%d): %v != %v", workers, qi, i, j, v, want.At(i, j))
					}
				}
			}
		}
	}
	mat.SetWorkers(0)
}

// TestTopKScoresMatchesFullRanking checks the streaming tiled
// selection against ranking a full row, for several test patients and
// k spanning a partial tile, several tiles and more than every drug,
// at both worker counts and both precisions. At F64 the full row is
// the batched reference; at F32 it is the engine's own Scores row, so
// the exp-skip and tile edges are checked bitwise on the f32 logits.
func TestTopKScoresMatchesFullRanking(t *testing.T) {
	m := trainedScoreModel(t)
	d := m.Data
	for _, prec := range []Precision{F64, F32} {
		withPrecision(t, m, prec)
		for _, workers := range []int{1, 4} {
			mat.SetWorkers(workers)
			for _, p := range d.Test[:6] {
				var row []float64
				if prec == F64 {
					row = m.scoresReference([]int{p}).Row(0)
				} else {
					row = m.Scores([]int{p}).Row(0)
				}
				for _, k := range []int{1, 4, 17, d.NumDrugs(), d.NumDrugs() + 5} {
					ids, scores := m.TopKScores(p, k)
					want := metrics.TopK(row, k)
					if len(ids) != len(want) || len(scores) != len(want) {
						t.Fatalf("%v patient %d k=%d: got %d ids, want %d", prec, p, k, len(ids), len(want))
					}
					for r := range want {
						if ids[r] != want[r] {
							t.Fatalf("%v workers=%d patient %d k=%d rank %d: id %d, want %d", prec, workers, p, k, r, ids[r], want[r])
						}
						if math.Float64bits(scores[r]) != math.Float64bits(row[want[r]]) {
							t.Fatalf("%v patient %d k=%d rank %d: score %v, want %v", prec, p, k, r, scores[r], row[want[r]])
						}
					}
				}
			}
		}
	}
	mat.SetWorkers(0)
}

// TestMidTrainingScoresStillMatch covers the drugCache-less path
// (validation scoring mid-training recomputes drug reps per call).
func TestMidTrainingScoresStillMatch(t *testing.T) {
	m := trainedScoreModel(t)
	cache := m.drugCache
	m.drugCache = nil
	defer func() { m.drugCache = cache }()
	patients := m.Data.Val[:3]
	bitsEqualRows(t, "uncached Scores", m.Scores(patients), m.scoresReference(patients))
}

// TestScoringAllocBudgets gates the engine's steady-state allocation:
// ScoresInto reuses pooled scratch end to end, and the TopKScores
// cold suggest path stays within a handful of allocations — far under
// the ≤64 budget the serving layer depends on.
func TestScoringAllocBudgets(t *testing.T) {
	m := trainedScoreModel(t)
	mat.SetWorkers(1)
	defer mat.SetWorkers(0)
	p := m.Data.Test[0]

	// The race detector's instrumentation allocates by itself; the
	// strict budgets only hold on uninstrumented builds.
	var slack float64
	if raceEnabled {
		slack = 4
	}
	requireTileTail(t, m)
	dst := mat.New(1, m.Data.NumDrugs())
	patients := []int{p}
	m.ScoresInto(dst, patients) // warm the pools
	if got := testing.AllocsPerRun(20, func() { m.ScoresInto(dst, patients) }); got > 0+slack {
		t.Fatalf("steady-state ScoresInto allocates %.1f objects, want 0", got)
	}

	m.TopKScores(p, 4)
	if got := testing.AllocsPerRun(20, func() { m.TopKScores(p, 4) }); got > 8+slack {
		t.Fatalf("TopKScores allocates %.1f objects, budget 8", got)
	}
}

// requireTileTail pins the alloc-budget fixture to a drug count whose
// last tile ends in a 1–3 drug tail, so the budgets cover both the
// four-drug Logits4 groups and the one-drug Logit tail.
func requireTileTail(t *testing.T, m *Model) {
	t.Helper()
	if tail := m.Data.NumDrugs() % drugTile % 4; tail == 0 {
		t.Fatalf("%d drugs leave no 1–3 drug tile tail", m.Data.NumDrugs())
	}
}

// TestConcurrentScoringHammer runs the fused engine from many
// goroutines at once (the serving pattern) under the race detector
// and checks every result is bitwise identical to the serial answer.
func TestConcurrentScoringHammer(t *testing.T) {
	m := trainedScoreModel(t)
	d := m.Data
	want := m.scoresReference(d.Test)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 15; iter++ {
				i := (g + iter) % len(d.Test)
				p := d.Test[i]
				if g%2 == 0 {
					got := m.Scores([]int{p})
					for j := 0; j < d.NumDrugs(); j++ {
						if math.Float64bits(got.At(0, j)) != math.Float64bits(want.At(i, j)) {
							t.Errorf("goroutine %d: Scores(%d) drug %d diverged", g, p, j)
							return
						}
					}
				} else {
					ids, scores := m.TopKScores(p, 4)
					top := metrics.TopK(want.Row(i), 4)
					for r := range top {
						if ids[r] != top[r] || math.Float64bits(scores[r]) != math.Float64bits(want.At(i, top[r])) {
							t.Errorf("goroutine %d: TopKScores(%d) rank %d diverged", g, p, r)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
