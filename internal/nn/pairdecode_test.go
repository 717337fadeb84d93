package nn

import (
	"math"
	"math/rand"
	"testing"

	"dssddi/internal/mat"
)

// TestPairDecoderMatchesBatchedForward checks the fused pair decode
// against the reference gather→Hadamard→concat→Forward pipeline, bit
// for bit, at several worker counts and across activations.
func TestPairDecoderMatchesBatchedForward(t *testing.T) {
	for _, workers := range []int{1, 4} {
		mat.SetWorkers(workers)
		for _, act := range []Activation{ActLeakyReLU, ActReLU, ActTanh, ActSigmoid} {
			rng := rand.New(rand.NewSource(5))
			const d, h, pairs = 23, 16, 37
			var ps Params
			mlp := NewMLP(rng, &ps, []int{d + 1, h, 1}, act, false)
			pd, ok := NewPairDecoder(mlp)
			if !ok {
				t.Fatal("decoder-shaped MLP rejected")
			}
			if gd, gh := pd.Dims(); gd != d || gh != h {
				t.Fatalf("Dims = (%d, %d), want (%d, %d)", gd, gh, d, h)
			}

			ha := mat.RandNormal(rng, 9, d, 1)
			hb := mat.RandNormal(rng, 11, d, 1)
			aIdx := make([]int, pairs)
			bIdx := make([]int, pairs)
			tcol := mat.New(pairs, 1)
			for i := 0; i < pairs; i++ {
				aIdx[i] = rng.Intn(ha.Rows())
				bIdx[i] = rng.Intn(hb.Rows())
				tcol.Set(i, 0, float64(rng.Intn(2)))
			}
			inter := mat.Hadamard(ha.GatherRows(aIdx), hb.GatherRows(bIdx))
			want := mlp.Forward(mat.ConcatCols(inter, tcol))

			interBuf := make([]float64, d+1)
			hidBuf := make([]float64, h)
			for i := 0; i < pairs; i++ {
				got := pd.Logit(ha.Row(aIdx[i]), hb.Row(bIdx[i]), tcol.At(i, 0), interBuf, hidBuf)
				if math.Float64bits(got) != math.Float64bits(want.At(i, 0)) {
					t.Fatalf("workers=%d act=%v pair %d: fused %v != batched %v", workers, act, i, got, want.At(i, 0))
				}
			}
		}
	}
	mat.SetWorkers(0)
}

// TestPairDecoderRejectsUnsupportedShapes pins the fallback contract.
func TestPairDecoderRejectsUnsupportedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var ps Params
	three := NewMLP(rng, &ps, []int{8, 8, 8, 1}, ActReLU, false)
	if _, ok := NewPairDecoder(three); ok {
		t.Fatal("3-layer MLP must be rejected")
	}
	wide := NewMLP(rng, &ps, []int{8, 8, 2}, ActReLU, false)
	if _, ok := NewPairDecoder(wide); ok {
		t.Fatal("non-scalar output must be rejected")
	}
	normed := NewMLP(rng, &ps, []int{8, 8, 1}, ActReLU, true)
	if _, ok := NewPairDecoder(normed); ok {
		t.Fatal("BatchNorm MLP must be rejected")
	}
	if _, ok := NewPairDecoder(nil); ok {
		t.Fatal("nil MLP must be rejected")
	}
}

// TestForwardRowMatchesForward checks the row-level MLP forward against
// the batched kernels, bit for bit, including an odd layer count.
func TestForwardRowMatchesForward(t *testing.T) {
	for _, sizes := range [][]int{{7, 5, 3}, {9, 16, 16, 4}, {6, 2}} {
		rng := rand.New(rand.NewSource(8))
		var ps Params
		mlp := NewMLP(rng, &ps, sizes, ActLeakyReLU, false)
		mlp.OutAct = ActLeakyReLU
		x := mat.RandNormal(rng, 13, sizes[0], 1)
		want := mlp.Forward(x)

		w := mlp.MaxWidth()
		dst := make([]float64, mlp.OutDim())
		buf1 := make([]float64, w)
		buf2 := make([]float64, w)
		for i := 0; i < x.Rows(); i++ {
			mlp.ForwardRow(dst, x.Row(i), buf1, buf2)
			for j, v := range dst {
				if math.Float64bits(v) != math.Float64bits(want.At(i, j)) {
					t.Fatalf("sizes %v row %d col %d: row forward %v != batched %v", sizes, i, j, v, want.At(i, j))
				}
			}
		}
		if mlp.InDim() != sizes[0] {
			t.Fatalf("InDim = %d, want %d", mlp.InDim(), sizes[0])
		}
	}
}

// TestPairDecoderLogits4MatchesLogit checks that every lane of both
// decoders' four-pair Logits4 is bitwise equal to a one-pair Logit
// call, across activations, interaction widths d+1 ≡ 0..3 mod 4 and
// drug rows with zero quads in only some of the four rows.
func TestPairDecoderLogits4MatchesLogit(t *testing.T) {
	for _, act := range []Activation{ActLeakyReLU, ActReLU, ActTanh, ActSigmoid} {
		for _, dims := range [][2]int{{23, 16}, {24, 19}, {25, 8}, {26, 33}, {130, 24}} {
			d, h := dims[0], dims[1]
			rng := rand.New(rand.NewSource(int64(31 + d)))
			var ps Params
			mlp := NewMLP(rng, &ps, []int{d + 1, h, 1}, act, false)
			pd, ok := NewPairDecoder(mlp)
			if !ok {
				t.Fatal("decoder-shaped MLP rejected")
			}
			pd32 := NewPairDecoder32(pd)

			a := mat.RandNormal(rng, 1, d, 1).Row(0)
			drugs := mat.RandNormal(rng, 8, d, 1)
			for q := 0; 4*q+3 < d; q++ {
				// Quad q is zero in the drug rows whose bit is set in
				// q%16, so groups mix zero and live quads.
				for r := 0; r < 4; r++ {
					if (q%16)&(1<<r) != 0 {
						clear(drugs.Row(r)[4*q : 4*q+4])
					}
				}
			}
			a32 := mat.Floats32(a)
			drugs32 := mat.Dense32From(drugs)
			inter := make([]float64, 4*(d+1))
			hid := make([]float64, 4*h)
			hid32 := make([]float32, 4*h)
			for g := 0; g+4 <= drugs.Rows(); g += 2 {
				b := [4][]float64{drugs.Row(g), drugs.Row(g + 1), drugs.Row(g + 2), drugs.Row(g + 3)}
				b32 := [4][]float32{drugs32.Row(g), drugs32.Row(g + 1), drugs32.Row(g + 2), drugs32.Row(g + 3)}
				tv := []float64{float64(g % 2), 1, 0, float64(rng.Intn(2))}
				tv32 := []float32{float32(tv[0]), float32(tv[1]), float32(tv[2]), float32(tv[3])}
				var got, got32 [4]float64
				pd.Logits4(got[:], a, b, tv, inter, hid)
				pd32.Logits4(got32[:], a32, b32, tv32, hid32)
				for r := 0; r < 4; r++ {
					want := pd.Logit(a, b[r], tv[r], inter, hid)
					if math.Float64bits(got[r]) != math.Float64bits(want) {
						t.Fatalf("act=%v d=%d h=%d group %d lane %d: Logits4 %v != Logit %v", act, d, h, g, r, got[r], want)
					}
					want32 := pd32.Logit(a32, b32[r], tv32[r], hid32)
					if math.Float64bits(got32[r]) != math.Float64bits(want32) {
						t.Fatalf("act=%v d=%d h=%d group %d lane %d: f32 Logits4 %v != Logit %v", act, d, h, g, r, got32[r], want32)
					}
				}
			}
		}
	}
}
