package wls

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/sparse"
)

// qrRankTol is the oracle's relative rank cutoff: |R_kk| at or below it
// times |R_00| ends the factorization. H₀'s entries are small integers, so
// a dependent column leaves rounding noise many orders below it.
const qrRankTol = 1e-9

// qrRank is the numerical rank of h by Householder QR with column pivoting
// (Businger & Golub), dense and independent of the sparse factor: each step
// brings the remaining column of largest norm to the diagonal and reflects
// it onto e_k. The norms are recomputed each step rather than downdated.
func qrRank(h *sparse.CSR) int {
	m, n := h.Rows, h.Cols
	cols := make([][]float64, n)
	for j := range cols {
		cols[j] = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		for k := h.RowPtr[i]; k < h.RowPtr[i+1]; k++ {
			cols[h.ColIdx[k]][i] += h.Val[k]
		}
	}
	dot := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	r00 := 0.0
	for k := 0; k < min(m, n); k++ {
		best, bestSq := k, -1.0
		for j := k; j < n; j++ {
			if s := dot(cols[j][k:], cols[j][k:]); s > bestSq {
				best, bestSq = j, s
			}
		}
		cols[k], cols[best] = cols[best], cols[k]
		alpha := math.Sqrt(bestSq)
		if k == 0 {
			r00 = alpha
		}
		if alpha == 0 || alpha <= qrRankTol*r00 {
			return k
		}
		v := slices.Clone(cols[k][k:])
		v[0] += math.Copysign(alpha, v[0])
		vv := dot(v, v)
		for j := k + 1; j < n; j++ {
			y := cols[j][k:]
			f := 2 * dot(v, y) / vv
			for i := range y {
				y[i] -= f * v[i]
			}
		}
	}
	return min(m, n)
}

// dropout keeps the share keep of the full plan's meters, drawn by seed, in
// plan order.
func dropout(n *grid.Network, keep float64, seed int64) []meas.Measurement {
	full := meas.FullPlan().Build(n)
	idx := rand.New(rand.NewSource(seed)).Perm(len(full))[:int(keep*float64(len(full)))]
	slices.Sort(idx)
	out := make([]meas.Measurement, len(idx))
	for k, i := range idx {
		out[k] = full[i]
	}
	return out
}

// dropoutCases are the networks the dropout tests draw from.
var dropoutCases = []struct {
	name string
	mk   func() *grid.Network
}{{"ieee14", grid.Case14}, {"ieee30", grid.Case30}, {"ieee118", grid.Case118}}

// parentDenseSolved is how many of TestObservabilityDropouts' 120 restored
// sets estimated without error when restoration ran on the weighted dense
// elimination this pin loop replaced (measured on the same draws, noise and
// seeds).
const parentDenseSolved = 88

// TestObservabilityDropouts draws 40 dropouts each of IEEE-14/30/118, each
// keeping 20–60 % of the full plan. On every draw the pin loop's rank equals
// the QR oracle's, and the restored set has full rank by both. The restored
// sets must then estimate at least as often as under the dense check. Which
// states get pinned is not compared: the factor's minimum-degree order
// picks a different set of weak states than column pivoting does, equally
// valid.
func TestObservabilityDropouts(t *testing.T) {
	solvedSets, draws := 0, 0
	for _, c := range dropoutCases {
		n := c.mk()
		truth := solved(t, n)
		ref := n.SlackIndex()
		for d := 0; d < 40; d++ {
			keep, seed := 0.2+0.4*float64(d)/39, int64(d+1)
			ms, err := meas.Simulate(n, dropout(n, keep, seed), truth, 1, seed)
			if err != nil {
				t.Fatal(err)
			}
			mod, err := meas.NewModel(n, ms, ref, truth.Va[ref])
			if err != nil {
				t.Fatal(err)
			}
			draws++
			obs := CheckObservability(mod)
			if want := qrRank(unitJacobian(mod)); obs.Rank != want || obs.Rank != obs.NState-len(obs.WeakStates) {
				t.Errorf("%s draw %d: rank %d (%d weak of %d), QR oracle %d", c.name, d, obs.Rank, len(obs.WeakStates), obs.NState, want)
			}
			augmented, added := RestoreObservability(mod)
			if len(added) != len(obs.WeakStates) {
				t.Errorf("%s draw %d: %d pseudo-measurements for %d weak states", c.name, d, len(added), len(obs.WeakStates))
			}
			aug, err := meas.NewModel(n, augmented, ref, truth.Va[ref])
			if err != nil {
				t.Fatal(err)
			}
			if r := qrRank(unitJacobian(aug)); r != aug.NState() || !CheckObservability(aug).Observable {
				t.Errorf("%s draw %d: restored set has QR rank %d of %d", c.name, d, r, aug.NState())
			}
			if _, err := Estimate(aug, Options{}); err == nil {
				solvedSets++
			}
		}
	}
	t.Logf("restored sets solved: %d/%d (dense check: %d/%d)", solvedSets, draws, parentDenseSolved, draws)
	if solvedSets < parentDenseSolved {
		t.Errorf("restored sets solved %d/%d, fewer than the dense check's %d", solvedSets, draws, parentDenseSolved)
	}
}

// FuzzObservabilityRank: over any network of the three, any share of the
// full plan and any draw, the pin loop's rank is the QR oracle's.
func FuzzObservabilityRank(f *testing.F) {
	f.Add(uint8(0), uint8(128), int64(1))
	f.Add(uint8(1), uint8(40), int64(7))
	f.Add(uint8(2), uint8(90), int64(3))
	f.Add(uint8(2), uint8(0), int64(0))
	nets := make([]*grid.Network, len(dropoutCases))
	for i, c := range dropoutCases {
		nets[i] = c.mk()
	}
	f.Fuzz(func(t *testing.T, c, keep uint8, seed int64) {
		n := nets[int(c)%len(nets)]
		mod, err := meas.NewModel(n, dropout(n, float64(keep)/255, seed), n.SlackIndex(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := CheckObservability(mod).Rank, qrRank(unitJacobian(mod)); got != want {
			t.Fatalf("%s keep %d/255 seed %d: rank %d, QR oracle %d", n.Name, keep, seed, got, want)
		}
	})
}
