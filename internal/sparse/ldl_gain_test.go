package sparse_test

// An external test package: the estimator's real gain matrices need grid,
// powerflow and meas, which import sparse.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/sparse"
)

// TestLDLApplyAloneMeetsCGTolerance: on the estimator's own gain systems one
// substitution of a fresh factor already passes the stopping test CG would
// apply to it, ‖b − G·x‖₂ ≤ 1e-10·‖b‖₂ — at the flat start, where the
// right-hand side is largest, and one Gauss–Newton step later. The gains are
// IEEE-118 and a 2-area SynthWECC under the full SCADA plan plus PMUs at
// roughly every tenth bus (the weight mix of wls's dense-oracle tests, PMU
// σ 5e-4), and with the PMU σ pushed to 1e-6 and 1e-9: weights spread over
// up to fourteen decades.
func TestLDLApplyAloneMeetsCGTolerance(t *testing.T) {
	const cgTol = 1e-10
	wecc, err := grid.SynthWECC(grid.SynthOptions{Areas: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []*grid.Network{grid.Case118(), wecc} {
		pf, err := powerflow.Solve(net, powerflow.Options{FlatStart: true, MaxIter: 40})
		if err != nil {
			t.Fatalf("powerflow %s: %v", net.Name, err)
		}
		for _, sigma := range []float64{5e-4, 1e-6, 1e-9} {
			rng := rand.New(rand.NewSource(100))
			plan := meas.FullPlan().Build(net)
			for _, b := range net.Buses {
				if rng.Intn(10) == 0 {
					plan = append(plan,
						meas.Measurement{Kind: meas.Angle, Bus: b.ID, Sigma: sigma},
						meas.Measurement{Kind: meas.Vmag, Bus: b.ID, Sigma: sigma})
				}
			}
			ms, err := meas.Simulate(net, plan, pf.State, 1, rng.Int63())
			if err != nil {
				t.Fatal(err)
			}
			ref := net.SlackIndex()
			mod, err := meas.NewModel(net, ms, ref, pf.State.Va[ref])
			if err != nil {
				t.Fatal(err)
			}
			w := mod.Weights()
			z := make([]float64, mod.NMeas())
			for i, m := range mod.Meas {
				z[i] = m.Value
			}
			x := mod.FlatVec()
			r := make([]float64, len(z))
			gx := make([]float64, len(x))
			dx := make([]float64, len(x))
			var f *sparse.LDLFactor
			for step := 0; step < 2; step++ {
				name := fmt.Sprintf("%s, PMU σ %g, step %d", net.Name, sigma, step)
				h := mod.Jacobian(x)
				g := sparse.Gain(h, w)
				sparse.Sub(r, z, mod.Eval(x))
				b := sparse.GainRHS(h, w, r)
				if f == nil {
					f, err = sparse.AnalyzeLDL(g)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				if err := f.Refresh(g); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				f.Apply(dx, b)
				g.MulVec(gx, dx)
				sparse.Sub(gx, b, gx)
				rel := sparse.Norm2(gx) / sparse.Norm2(b)
				if !(rel <= cgTol) {
					t.Errorf("%s: relative residual %.3g after one substitution, CG's test is %g", name, rel, cgTol)
				}
				t.Logf("%s: relative residual %.3g", name, rel)
				sparse.Axpy(1, dx, x)
			}
		}
	}
}

// TestLDLMatchesOracleOnGains: on the estimator's centralized gains —
// IEEE-14, 30 and 118 and the 12-area SynthWECC, and the IEEE-118 gain with
// its rows stored shuffled — L, D and one solution are bitwise those of the
// substitution and refactorization kept in ldl_test.go as the oracle, and
// of the column-at-a-time kernels, serially and pooled at 1, 2 and 4
// workers; on the SynthWECC gain most of the work is taken in pairs.
func TestLDLMatchesOracleOnGains(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	g118 := centralGain(t, grid.Case118())
	wecc := centralGain(t, synthWECC(t, 12, 1))
	for name, g := range map[string]*sparse.CSR{
		"ieee14":           centralGain(t, grid.Case14()),
		"ieee30":           centralGain(t, grid.Case30()),
		"ieee118":          g118,
		"ieee118-shuffled": sparse.ShuffleRows(rng, g118),
		"synth-wecc-12":    wecc,
	} {
		r := make([]float64, g.Rows)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		if err := sparse.LDLMatchesOracle(g, r); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	requireMostlyPaired(t, "synth-wecc-12", wecc)
}

// requireMostlyPaired fails unless the row kernel takes most of L's entries,
// and the forward sweep most of its columns, in pairs on g's analysis: a
// pair detection that fell back to one column at a time everywhere would
// still hold every bit.
func requireMostlyPaired(t *testing.T, name string, g *sparse.CSR) {
	t.Helper()
	f, err := sparse.AnalyzeLDL(g)
	if err != nil {
		t.Fatal(err)
	}
	rows, sweep := sparse.LDLPairShares(f)
	t.Logf("%s: pairs take %.3f of L's entries in the row kernel, %.3f of its columns in the forward sweep", name, rows, sweep)
	if rows < 0.5 || sweep < 0.5 {
		t.Errorf("%s: pairs take %.3f of L's entries in the row kernel and %.3f of its columns in the forward sweep, want most", name, rows, sweep)
	}
}

// TestPairSharesOnWorkloadGains logs how much of the work pairs reach on
// the gains the benchmark's workloads factor: the centralized IEEE-118 and
// 12-area SynthWECC gains, and the Step-1 and Step-2 gains of every
// subsystem of IEEE-118 in 9 subsystems and of the SynthWECC in its 12
// areas, each metered by the full SCADA plan plus the reference PMUs DSE
// needs. For each it logs the share of L's entries the row kernel takes in
// pairs, the share of L's columns the forward sweep takes in pairs, and the
// share of H's rows that repeat the pattern of a neighbouring row (a site's
// P and Q rows), summed over the subsystems; and it fails unless the sweep
// pairs most of L's columns on each.
func TestPairSharesOnWorkloadGains(t *testing.T) {
	wecc := synthWECC(t, 12, 1)
	d118, err := core.Decompose(grid.Case118(), 9, core.DecomposeOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dWECC, err := core.DecomposeWithParts(wecc, 12, grid.AreaParts(wecc), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		d    *core.Decomposition
	}{{"ieee118", d118}, {"synth-wecc-12", dWECC}} {
		plan := meas.FullPlan().Build(c.d.Net)
		plan = append(plan, core.PMUPlanFor(c.d, plan, 0.0005)...)
		central, err := meas.NewModel(c.d.Net, plan, c.d.Net.SlackIndex(), 0)
		if err != nil {
			t.Fatal(err)
		}
		var s pairCounts
		s.add(t, central)
		t.Logf("%s centralized: %s", c.name, s)

		var step1, step2 pairCounts
		packets := make([]core.PseudoPacket, len(c.d.Subsystems))
		for si := range c.d.Subsystems {
			sp, err := c.d.BuildStep1(si, plan)
			if err != nil {
				t.Fatal(err)
			}
			step1.add(t, sp.Model)
			nb := len(sp.Net.Buses)
			flat := powerflow.State{Vm: make([]float64, nb), Va: make([]float64, nb)}
			for i := range flat.Vm {
				flat.Vm[i] = 1
			}
			packets[si] = c.d.ExtractPseudo(si, sp, flat)
		}
		for si := range c.d.Subsystems {
			var incoming []core.PseudoPacket
			for _, nb := range c.d.Neighbors(si) {
				incoming = append(incoming, packets[nb])
			}
			sp, err := c.d.BuildStep2(si, plan, incoming, 0)
			if err != nil {
				t.Fatal(err)
			}
			step2.add(t, sp.Model)
		}
		t.Logf("%s step 1, %d subsystems: %s", c.name, len(c.d.Subsystems), step1)
		t.Logf("%s step 2, %d subsystems: %s", c.name, len(c.d.Subsystems), step2)
		for _, p := range []struct {
			what string
			s    pairCounts
		}{{"centralized", s}, {"step 1", step1}, {"step 2", step2}} {
			if _, sweep, _ := p.s.shares(); sweep < 0.5 {
				t.Errorf("%s %s: the forward sweep pairs %.3f of L's columns, want most", c.name, p.what, sweep)
			}
		}
	}
}

// pairCounts sums, over the gains of several models, L's entries and
// columns, those taken in pairs, H's rows and those that repeat a
// neighbouring row's pattern.
type pairCounts struct {
	lEntries, lEntriesPaired, cols, colsPaired, hRows, hRowsPaired float64
}

// add factors the gain of mod's Jacobian plan at the flat start and counts
// it in.
func (s *pairCounts) add(t *testing.T, mod *meas.Model) {
	t.Helper()
	h := mod.NewJacobianPlan().Refresh(mod.FlatVec())
	f, err := sparse.AnalyzeLDL(sparse.NewGainPlan(h).Refresh(h, mod.Weights()))
	if err != nil {
		t.Fatal(err)
	}
	rows, sweep := sparse.LDLPairShares(f)
	lVal, _ := sparse.LDLNumerics(f)
	entries := float64(len(lVal))
	s.lEntries += entries
	s.lEntriesPaired += rows * entries
	s.cols += float64(h.Cols)
	s.colsPaired += sweep * float64(h.Cols)
	s.hRows += float64(h.Rows)
	for m := 0; m+1 < h.Rows; m++ {
		lo, mid, hi := h.RowPtr[m], h.RowPtr[m+1], h.RowPtr[m+2]
		if mid > lo && slices.Equal(h.ColIdx[lo:mid], h.ColIdx[mid:hi]) {
			s.hRowsPaired += 2
			m++
		}
	}
}

func (s pairCounts) shares() (rowKernel, sweep, hRows float64) {
	return s.lEntriesPaired / s.lEntries, s.colsPaired / s.cols, s.hRowsPaired / s.hRows
}

func (s pairCounts) String() string {
	rows, sweep, hRows := s.shares()
	return fmt.Sprintf("pairs take %.3f of L's entries in the row kernel and %.3f of its columns in the forward sweep; %.3f of H's rows come in pairs of one pattern", rows, sweep, hRows)
}

// TestLDLRowReplayMatchesWalkOnGains: the refresh that replays each row's
// recorded pattern, L's column pairs together, holds L and D bit for bit as
// the kernel that walked the elimination tree on every row and the replay a
// column at a time, both kept in ldl_test.go as oracles — on the IEEE-14,
// 30 and 118 gains and the 2-, 4- and 12-area SynthWECC gains, serially and
// pooled at 1, 2 and 4 workers; on the 12-area gain most of the work is
// taken in pairs.
func TestLDLRowReplayMatchesWalkOnGains(t *testing.T) {
	cases := map[string]*sparse.CSR{
		"ieee14":  centralGain(t, grid.Case14()),
		"ieee30":  centralGain(t, grid.Case30()),
		"ieee118": centralGain(t, grid.Case118()),
	}
	for _, areas := range []int{2, 4, 12} {
		cases[fmt.Sprintf("synth-wecc-%d", areas)] = centralGain(t, synthWECC(t, areas, 1))
	}
	for name, g := range cases {
		f, err := sparse.AnalyzeLDL(g)
		if err != nil {
			t.Fatal(err)
		}
		walked, scalar := f.SharePattern(), f.SharePattern()
		if err := sparse.WalkingRefresh(walked, g); err != nil {
			t.Fatalf("%s: walking refresh: %v", name, err)
		}
		if err := sparse.ScalarRefresh(scalar, g); err != nil {
			t.Fatalf("%s: column-at-a-time refresh: %v", name, err)
		}
		assertSameFactor(t, name+", column at a time", scalar, walked)
		if err := f.Refresh(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSameFactor(t, name+", serial", f, walked)
		for _, workers := range []int{1, 2, 4} {
			pool := sparse.NewPool(workers)
			c := f.SharePattern()
			if err := c.RefreshPool(g, pool); err != nil {
				t.Fatalf("%s, %d workers: %v", name, workers, err)
			}
			assertSameFactor(t, fmt.Sprintf("%s, %d workers", name, workers), c, walked)
			pool.Close()
		}
	}
	requireMostlyPaired(t, "synth-wecc-12", cases["synth-wecc-12"])
}

// TestLDLRefreshPoolMatchesSerialOnGains: on the centralized gains of the
// 4-, 12- and 37-area SynthWECC, a pooled refresh at 1, 2 and 4 workers
// holds L and D bit for bit as the serial one does — on a fresh factor, on
// a second refresh of the same factor with other values, and on a factor
// sharing the pattern, which shares the split too.
func TestLDLRefreshPoolMatchesSerialOnGains(t *testing.T) {
	for _, areas := range []int{4, 12, 37} {
		g := centralGain(t, synthWECC(t, areas, 1))
		// The second pass: the same pattern with a heavier diagonal.
		g2 := &sparse.CSR{Rows: g.Rows, Cols: g.Cols, RowPtr: g.RowPtr, ColIdx: g.ColIdx, Val: slices.Clone(g.Val)}
		for i := 0; i < g2.Rows; i++ {
			for p := g2.RowPtr[i]; p < g2.RowPtr[i+1]; p++ {
				if g2.ColIdx[p] == i {
					g2.Val[p] *= 1.5
				}
			}
		}
		serial, err := sparse.AnalyzeLDL(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			pool := sparse.NewPool(workers)
			f, err := sparse.AnalyzeLDLPool(g, pool)
			if err != nil {
				t.Fatal(err)
			}
			if cols, ptr := sparse.LDLSplit(f); workers > 1 {
				sizes := make([]int, len(ptr)-1)
				for q := range sizes {
					sizes[q] = ptr[q+1] - ptr[q]
				}
				if len(cols) != g.Rows || len(sizes) != workers+1 {
					t.Fatalf("areas %d, %d workers: split of %d columns into %d segments", areas, workers, len(cols), len(sizes))
				}
				t.Logf("areas %d (%d states), %d workers: part and top sizes %v", areas, g.Rows, workers, sizes)
			} else if cols != nil {
				t.Fatalf("areas %d: a one-worker pool split the forest", areas)
			}
			for pass, a := range []*sparse.CSR{g, g2, g} {
				what := fmt.Sprintf("areas %d, %d workers, pass %d", areas, workers, pass)
				if err := serial.Refresh(a); err != nil {
					t.Fatalf("%s: serial: %v", what, err)
				}
				if err := f.RefreshPool(a, pool); err != nil {
					t.Fatalf("%s: pooled: %v", what, err)
				}
				assertSameFactor(t, what, f, serial)
				if pass == 1 {
					c := f.SharePattern()
					if err := c.RefreshPool(a, pool); err != nil {
						t.Fatalf("%s: shared pattern: %v", what, err)
					}
					assertSameFactor(t, what+", shared pattern", c, serial)
				}
			}
			pool.Close()
		}
	}
}

func assertSameFactor(t *testing.T, what string, got, want *sparse.LDLFactor) {
	t.Helper()
	gl, gd := sparse.LDLNumerics(got)
	wl, wd := sparse.LDLNumerics(want)
	for name, p := range map[string][2][]float64{"L": {gl, wl}, "D": {gd, wd}} {
		for i := range p[1] {
			if math.Float64bits(p[0][i]) != math.Float64bits(p[1][i]) {
				t.Fatalf("%s: %s[%d] = %v, serial %v", what, name, i, p[0][i], p[1][i])
			}
		}
	}
}

// TestLDLRefreshPoolBreakdown: a gain made indefinite in some of its
// columns fails the pooled refresh with the *PivotError of the serial one —
// the first failing row in elimination order, wherever the split put it: in
// one part, in both parts (the later part's column first in the forest's
// order), or in the top. A good refresh afterwards matches the serial
// factor bit for bit again.
func TestLDLRefreshPoolBreakdown(t *testing.T) {
	g := centralGain(t, synthWECC(t, 12, 1))
	pool := sparse.NewPool(2)
	defer pool.Close()
	f, err := sparse.AnalyzeLDLPool(g, pool)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := sparse.AnalyzeLDL(g)
	if err != nil {
		t.Fatal(err)
	}
	cols, ptr := sparse.LDLSplit(f)
	perm := sparse.LDLPerm(f)
	part0, part1, top := cols[ptr[0]:ptr[1]], cols[ptr[1]:ptr[2]], cols[ptr[2]:]
	for name, broken := range map[string][]int32{
		"part 0":         {part0[len(part0)/2]},
		"both parts":     {part0[len(part0)-1], part1[0]},
		"top":            {top[0]},
		"part 1 and top": {part1[len(part1)-1], top[len(top)-1]},
	} {
		bad := &sparse.CSR{Rows: g.Rows, Cols: g.Cols, RowPtr: g.RowPtr, ColIdx: g.ColIdx, Val: slices.Clone(g.Val)}
		for _, k := range broken {
			i := perm[k]
			for p := bad.RowPtr[i]; p < bad.RowPtr[i+1]; p++ {
				if bad.ColIdx[p] == i {
					bad.Val[p] = -bad.Val[p]
				}
			}
		}
		var want, got *sparse.PivotError
		if err := serial.Refresh(bad); !errors.As(err, &want) {
			t.Fatalf("%s: serial refresh returned %v, want a *PivotError", name, err)
		}
		if err := f.RefreshPool(bad, pool); !errors.As(err, &got) {
			t.Fatalf("%s: pooled refresh returned %v, want a *PivotError", name, err)
		}
		if *got != *want {
			t.Errorf("%s: pooled %+v, serial %+v", name, *got, *want)
		}
		if err := serial.Refresh(g); err != nil {
			t.Fatal(err)
		}
		if err := f.RefreshPool(g, pool); err != nil {
			t.Fatalf("%s: refresh after the breakdown: %v", name, err)
		}
		assertSameFactor(t, name+", after the breakdown", f, serial)
	}
}

// TestAnalysisMatchesWalkOracle: the analysis that reads L's pattern and the
// elimination tree off the minimum-degree elimination holds every array the
// two elimination-tree walks it replaced built — ordering, permuted upper
// triangle, tree, L's pattern and, on a pool, the split of the forest — on
// the IEEE cases, the 2- to 37-area SynthWECC gains, random SPD and
// gain-shaped patterns and a gain whose rows are stored shuffled, at 1, 2
// and 4 pool workers.
func TestAnalysisMatchesWalkOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	cases := map[string]*sparse.CSR{
		"ieee14":   centralGain(t, grid.Case14()),
		"ieee30":   centralGain(t, grid.Case30()),
		"ieee118":  centralGain(t, grid.Case118()),
		"spd-90":   sparse.RandomSPD(rng, 90),
		"spd-400":  sparse.RandomSPD(rng, 400),
		"gain-300": sparse.GainFixture(rng, 300, 450),
	}
	for _, areas := range []int{2, 4, 12, 37} {
		cases[fmt.Sprintf("synth-wecc-%d", areas)] = centralGain(t, synthWECC(t, areas, 1))
	}
	cases["synth-wecc-4-shuffled"] = sparse.ShuffleRows(rng, cases["synth-wecc-4"])
	for _, workers := range []int{1, 2, 4} {
		pool := sparse.NewPool(workers)
		for name, g := range cases {
			if err := sparse.AnalysisMatches(g, pool); err != nil {
				t.Errorf("%s, %d workers: %v", name, workers, err)
			}
		}
		pool.Close()
	}
}
