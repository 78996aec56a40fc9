package sparse_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/sparse"
)

// centralGain is the centralized gain matrix of net under the full SCADA
// plan at the flat start: the pattern every cold centralized solve orders.
func centralGain(t *testing.T, net *grid.Network) *sparse.CSR {
	t.Helper()
	mod, err := meas.NewModel(net, meas.FullPlan().Build(net), net.SlackIndex(), 0)
	if err != nil {
		t.Fatal(err)
	}
	hj := mod.Jacobian(mod.FlatVec())
	return sparse.NewGainPlan(hj).Refresh(hj, mod.Weights())
}

func synthWECC(t *testing.T, areas int, seed int64) *grid.Network {
	t.Helper()
	net, err := grid.SynthWECC(grid.SynthOptions{Areas: areas, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestMinDegreeFillOnGainMatrices: on the gain matrices the estimator
// factors, ordering supervariables leaves the fill of the scalar elimination
// — the two sizes the benchmarks run at pinned by number — and the factor's
// analysis sizes L to exactly that.
func TestMinDegreeFillOnGainMatrices(t *testing.T) {
	for _, c := range []struct {
		name string
		net  *grid.Network
		pin  int // 0: not pinned
	}{
		{"ieee14", grid.Case14(), 0},
		{"ieee30", grid.Case30(), 0},
		{"ieee118", grid.Case118(), 3329},
		{"synth-wecc-12", synthWECC(t, 12, 1), 47311},
	} {
		g := centralGain(t, c.net)
		got, want := sparse.FillOf(g, sparse.MinDegree(g)), sparse.FillOf(g, sparse.MinDegreeReference(g))
		if got != want || (c.pin != 0 && got != c.pin) {
			t.Errorf("%s: fill %d, scalar elimination %d, pinned %d", c.name, got, want, c.pin)
		}
		f, err := sparse.AnalyzeLDL(g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if f.FactorNNZ() != got {
			t.Errorf("%s: the factor holds %d off-diagonals, the elimination game on its ordering leaves %d", c.name, f.FactorNNZ(), got)
		}
	}
	for seed := int64(1); seed <= 50; seed++ {
		g := centralGain(t, synthWECC(t, 2, seed))
		if got, want := sparse.FillOf(g, sparse.MinDegree(g)), sparse.FillOf(g, sparse.MinDegreeReference(g)); got != want {
			t.Errorf("2-area SynthWECC seed %d: fill %d, scalar elimination %d", seed, got, want)
		}
	}
}

// TestOrderingAllocatesAFewSlices: adjacency lists are carved from one
// backing array and regrow out of a doubling arena, so at 2 831 states the
// ordering allocates its fixed arrays and a few chunks, not a slice per list
// that grows (the whole analysis made 105 allocations with the scalar
// elimination).
func TestOrderingAllocatesAFewSlices(t *testing.T) {
	g := centralGain(t, synthWECC(t, 12, 1))
	if a := testing.AllocsPerRun(3, func() { sparse.MinDegree(g) }); a > 20 {
		t.Errorf("MinDegree allocates %v times at n = %d, want at most 20", a, g.Rows)
	}
	if a := testing.AllocsPerRun(3, func() {
		if _, err := sparse.AnalyzeLDL(g); err != nil {
			t.Fatal(err)
		}
	}); a > 40 {
		t.Errorf("AnalyzeLDL allocates %v times at n = %d, want at most 40", a, g.Rows)
	}
}

// TestLDLFactorsRowShuffledGain: CSR does not promise sorted rows, and the
// factor does not assume them — the IEEE-14 gain with every row's entries in
// random order is ordered the same, factored, and solves to the dense
// oracle's answer.
func TestLDLFactorsRowShuffledGain(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := centralGain(t, grid.Case14())
	b := make([]float64, g.Rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want, err := sparse.SolveDense(g.ToDense(), b)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		f, err := sparse.NewLDL(sparse.ShuffleRows(rng, g))
		if err != nil {
			t.Fatalf("shuffle %d: %v", trial, err)
		}
		got := make([]float64, g.Rows)
		f.Apply(got, b)
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("shuffle %d: x[%d] = %g, dense oracle %g", trial, i, got[i], want[i])
			}
		}
	}
}
