package wls

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/sparse"
)

func TestZeroInjectionConstraintsScan(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 0, 1)
	cs := ZeroInjectionConstraints(mod)
	// IEEE-14 has exactly one true transit bus: bus 7 (bus 8's condenser
	// counts as generation; bus 9 carries a shunt).
	want := map[int]bool{7: true}
	seen := map[int]bool{}
	for _, c := range cs {
		seen[c.Bus] = true
	}
	for b := range want {
		if !seen[b] {
			t.Errorf("transit bus %d not found", b)
		}
	}
	for b := range seen {
		if !want[b] {
			t.Errorf("bus %d wrongly marked zero-injection", b)
		}
	}
	if len(cs) != 2 {
		t.Fatalf("%d constraints, want 2 (P and Q at bus 7)", len(cs))
	}
}

func TestEstimateConstrainedEnforcesExactly(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 1, 57)
	cs := ZeroInjectionConstraints(mod)
	res, err := EstimateConstrained(mod, cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxConstraintViolation > 1e-8 {
		t.Errorf("constraint violation %g, want ~0", res.MaxConstraintViolation)
	}
	if len(res.Lambda) != len(cs) {
		t.Fatalf("%d multipliers for %d constraints", len(res.Lambda), len(cs))
	}
	// Compare with the large-weight virtual-measurement approximation: the
	// constrained solve must satisfy the constraint at least as well.
	virt := append(append([]meas.Measurement(nil), mod.Meas...),
		meas.Measurement{Kind: meas.Pinj, Bus: 7, Sigma: 1e-4, Value: 0},
		meas.Measurement{Kind: meas.Qinj, Bus: 7, Sigma: 1e-4, Value: 0})
	ref := n.SlackIndex()
	vmod, err := meas.NewModel(n, virt, ref, truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	vres, err := Estimate(vmod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate the virtual solution's injection at bus 7.
	cmod, err := meas.NewModel(n, []meas.Measurement{
		{Kind: meas.Pinj, Bus: 7, Sigma: 1},
	}, ref, truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	vViol := math.Abs(cmod.Eval(vres.X)[0])
	if res.MaxConstraintViolation > vViol+1e-12 {
		t.Errorf("KKT violation %g worse than weighted approximation %g",
			res.MaxConstraintViolation, vViol)
	}
	// And the overall estimate stays accurate.
	dvm, dva := maxStateError(res.State, truth)
	if dvm > 0.01 || dva > 0.01 {
		t.Fatalf("constrained estimate error Vm=%g Va=%g", dvm, dva)
	}
}

func TestEstimateConstrainedNoConstraintsFallsBack(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 1, 59)
	plain, err := Estimate(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := EstimateConstrained(mod, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.X {
		if plain.X[i] != res.X[i] {
			t.Fatal("no-constraint path differs from plain Estimate")
		}
	}
}

func TestEstimateConstrainedValidation(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 0, 1)
	if _, err := EstimateConstrained(mod, []Constraint{{Kind: meas.Vmag, Bus: 7}}, Options{}); !errors.Is(err, ErrBadConstraint) {
		t.Errorf("Vmag constraint: %v", err)
	}
	if _, err := EstimateConstrained(mod, []Constraint{{Kind: meas.Pinj, Bus: 999}}, Options{}); !errors.Is(err, ErrBadConstraint) {
		t.Errorf("unknown bus: %v", err)
	}
}

func TestEstimateConstrained118(t *testing.T) {
	n := grid.Case118()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 1, 63)
	cs := ZeroInjectionConstraints(mod)
	if len(cs) < 6 {
		t.Fatalf("expected several transit buses on 118, got %d constraints", len(cs))
	}
	res, err := EstimateConstrained(mod, cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxConstraintViolation > 1e-7 {
		t.Errorf("violation %g", res.MaxConstraintViolation)
	}
	dvm, _ := maxStateError(res.State, truth)
	if dvm > 0.01 {
		t.Errorf("error %g", dvm)
	}
}

// kktOracle is the Gauss–Newton loop EstimateConstrained ran before it took
// its steps through the Schur complement on the engine's factor, kept as it
// was: it assembles the (n+nc)×(n+nc) KKT matrix [HᵀWH Cᵀ; C 0] every step
// from a gain plan of the meters and a Jacobian plan of the constraints, and
// solves it by partially pivoted dense LU.
func kktOracle(mod *meas.Model, constraints []Constraint, opts Options) (*ConstrainedResult, error) {
	tol, maxIter := opts.limits()
	nc := len(constraints)
	if nc == 0 {
		res, err := Estimate(mod, opts)
		if err != nil {
			return nil, err
		}
		return &ConstrainedResult{Result: res}, nil
	}
	// Constraint evaluator: a zero-sigma-free model over the same network.
	cms := make([]meas.Measurement, nc)
	for i, c := range constraints {
		if c.Kind != meas.Pinj && c.Kind != meas.Qinj {
			return nil, fmt.Errorf("%w: kind %v", ErrBadConstraint, c.Kind)
		}
		if _, ok := mod.Net.Index(c.Bus); !ok {
			return nil, fmt.Errorf("%w: bus %d", ErrBadConstraint, c.Bus)
		}
		cms[i] = meas.Measurement{Kind: c.Kind, Bus: c.Bus, Sigma: 1, Value: 0}
	}
	cmod, err := meas.NewModel(mod.Net, cms, mod.RefBus(), mod.RefAngle())
	if err != nil {
		return nil, err
	}
	if mod.NMeas()+nc < mod.NState() {
		return nil, fmt.Errorf("%w: %d measurements + %d constraints < %d states",
			ErrUnobservable, mod.NMeas(), nc, mod.NState())
	}

	n := mod.NState()
	x := mod.FlatVec()
	if opts.X0 != nil {
		if len(opts.X0) != n {
			return nil, fmt.Errorf("wls: warm start length %d != state dim %d", len(opts.X0), n)
		}
		copy(x, opts.X0)
	}
	w := mod.Weights()
	z := make([]float64, mod.NMeas())
	for i, m := range mod.Meas {
		z[i] = m.Value
	}

	// Symbolic plans for both the measurement model and the constraint
	// evaluator: the per-iteration KKT assembly refreshes numerics only.
	jplan := mod.NewJacobianPlan()
	gplan := sparse.NewGainPlan(jplan.H)
	cplan := cmod.NewJacobianPlan()
	pool := sparse.DefaultPool()
	h := make([]float64, mod.NMeas())
	wr := make([]float64, mod.NMeas())
	cval := make([]float64, nc)
	// The (n+nc) × (n+nc) KKT system, reassembled every iteration; b's
	// first n entries are HᵀW·r.
	kkt := sparse.NewDense(n+nc, n+nc)
	b := make([]float64, n+nc)

	out := &ConstrainedResult{Result: &Result{}}
	r := make([]float64, mod.NMeas())
	for iter := 0; iter < maxIter; iter++ {
		jplan.EvalInto(h, x)
		sparse.Sub(r, z, h)
		hj := jplan.Refresh(x)
		g := gplan.RefreshPool(hj, w, pool)
		sparse.GainRHSInto(b[:n], hj, w, r, wr)
		cplan.EvalInto(cval, x)
		cj := cplan.Refresh(x)

		clear(kkt.Data)
		for i := 0; i < g.Rows; i++ {
			for k := g.RowPtr[i]; k < g.RowPtr[i+1]; k++ {
				kkt.AddAt(i, g.ColIdx[k], g.Val[k])
			}
		}
		for ci := 0; ci < nc; ci++ {
			for k := cj.RowPtr[ci]; k < cj.RowPtr[ci+1]; k++ {
				col := cj.ColIdx[k]
				v := cj.Val[k]
				kkt.AddAt(n+ci, col, v)
				kkt.AddAt(col, n+ci, v)
			}
		}
		for ci := 0; ci < nc; ci++ {
			b[n+ci] = -cval[ci]
		}
		sol, err := sparse.SolveDense(kkt, b)
		if err != nil {
			if errors.Is(err, sparse.ErrSingular) {
				return nil, fmt.Errorf("%w: singular KKT system (redundant constraints?)", ErrUnobservable)
			}
			return nil, fmt.Errorf("wls: KKT solve at iteration %d: %w", iter, err)
		}
		sparse.Axpy(1, sol[:n], x)
		out.Lambda = sol[n:]
		out.Iterations = iter + 1
		if sparse.NormInf(sol[:n]) < tol {
			out.Converged = true
			break
		}
	}

	jplan.EvalInto(h, x)
	sparse.Sub(r, z, h)
	out.X = x
	out.State = mod.VecToState(x)
	out.Residuals = r
	for i := range r {
		out.ObjectiveJ += w[i] * r[i] * r[i]
	}
	cplan.EvalInto(cval, x)
	for _, cv := range cval {
		if a := math.Abs(cv); a > out.MaxConstraintViolation {
			out.MaxConstraintViolation = a
		}
	}
	if !out.Converged {
		return out, fmt.Errorf("%w after %d iterations", ErrNotConverged, out.Iterations)
	}
	return out, nil
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// oracleCases are the networks the constrained solve is held to kktOracle
// on. SynthWECC-4's oracle takes about 0.6 s a solve, and ten times that
// under the race detector, which skips it.
var oracleCases = []struct {
	name  string
	build func() *grid.Network
}{
	{"ieee14", grid.Case14}, {"ieee30", grid.Case30}, {"ieee118", grid.Case118},
	{"synth-wecc-4", func() *grid.Network {
		n, err := grid.SynthWECC(grid.SynthOptions{Areas: 4, Seed: 1})
		if err != nil {
			panic(err)
		}
		return n
	}},
}

// TestEstimateConstrainedMatchesKKTOracle: on every oracle network, two
// noise seeds of the full plan, from the flat start and from the
// unconstrained estimate, the Schur step on the engine's factor lands where
// the dense KKT loop does, in as many iterations. So it does at seed 3, from
// the flat start, with the meters at a leaf bus behind a constrained one
// dropped: the leaf's states are then observable through the constraints
// alone, and HᵀWH is singular there while G_α is not.
func TestEstimateConstrainedMatchesKKTOracle(t *testing.T) {
	for _, c := range oracleCases {
		if raceEnabled && c.name == "synth-wecc-4" {
			t.Logf("%s skipped under the race detector", c.name)
			continue
		}
		for _, seed := range []int64{3, 4} {
			mod := engineTestModel(t, c.build, 1, seed)
			cs := ZeroInjectionConstraints(mod)
			if len(cs) == 0 {
				t.Fatalf("%s: no zero-injection buses", c.name)
			}
			plain, err := Estimate(mod, Options{})
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s seed %d, %d constraints", c.name, seed, len(cs))
			matchKKTOracleOn(t, what+", from flat", mod, cs, Options{})
			matchKKTOracleOn(t, what+", from the estimate", mod, cs, Options{X0: plain.X})
			if seed != 3 {
				continue
			}
			leaf, _ := leafBus(mod, cs, true)
			if leaf < 0 {
				t.Fatalf("%s has no leaf bus behind a constrained one", c.name)
			}
			cut := withoutMetersAt(t, mod, leaf, nil)
			matchKKTOracleOn(t, fmt.Sprintf("%s, bus %d seen by constraints alone", what, mod.Net.Buses[leaf].ID), cut, cs, Options{})
		}
	}
}

// matchKKTOracleOn runs EstimateConstrained and kktOracle on mod and holds
// the one to the other (matchKKTOracle).
func matchKKTOracleOn(t *testing.T, what string, mod *meas.Model, cs []Constraint, opts Options) {
	t.Helper()
	got, err := EstimateConstrained(mod, cs, opts)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, err := kktOracle(mod, cs, opts)
	if err != nil {
		t.Fatalf("%s: oracle: %v", what, err)
	}
	matchKKTOracle(t, what, got, want)
}

// matchKKTOracle holds a constrained result to the oracle's: states within
// 1e-8, multipliers within 1e-8 of the largest (of 1 where they all vanish,
// as they do where no constraint binds), the same iteration count and
// convergence, and the constraints held to 1e-10.
func matchKKTOracle(t *testing.T, what string, got, want *ConstrainedResult) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Errorf("%s: %d iterations, converged %v; oracle %d, %v", what, got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	var dx, dl, lmax float64
	for i := range want.X {
		dx = max(dx, math.Abs(got.X[i]-want.X[i]))
	}
	for i := range want.Lambda {
		dl, lmax = max(dl, math.Abs(got.Lambda[i]-want.Lambda[i])), max(lmax, math.Abs(want.Lambda[i]))
	}
	if dx > 1e-8 || dl > 1e-8*max(lmax, 1) || len(got.Lambda) != len(want.Lambda) {
		t.Errorf("%s: states off the oracle's by %.3g, multipliers by %.3g of %.3g", what, dx, dl, lmax)
	}
	if got.MaxConstraintViolation > 1e-10 {
		t.Errorf("%s: constraint violation %.3g (oracle %.3g)", what, got.MaxConstraintViolation, want.MaxConstraintViolation)
	}
	if len(got.Residuals) != len(want.Residuals) || math.Abs(got.ObjectiveJ-want.ObjectiveJ) > 1e-8*max(1, want.ObjectiveJ) {
		t.Errorf("%s: %d residuals, J = %.12g; oracle %d, %.12g", what, len(got.Residuals), got.ObjectiveJ, len(want.Residuals), want.ObjectiveJ)
	}
	t.Logf("%s: %d iterations; states off by %.2g, multipliers by %.2g of %.3g, violation %.2g", what, got.Iterations, dx, dl, lmax, got.MaxConstraintViolation)
}

// TestEstimateConstrainedRedundant: a constraint listed twice makes the
// Schur complement singular, which reads as redundant constraints.
func TestEstimateConstrainedRedundant(t *testing.T) {
	mod := engineTestModel(t, grid.Case14, 1, 3)
	cs := []Constraint{{Kind: meas.Pinj, Bus: 7}, {Kind: meas.Qinj, Bus: 7}, {Kind: meas.Pinj, Bus: 7}}
	_, err := EstimateConstrained(mod, cs, Options{})
	if !errors.Is(err, ErrUnobservable) || !strings.Contains(err.Error(), "redundant constraints") {
		t.Fatalf("duplicated constraint: %v, want ErrUnobservable naming redundant constraints", err)
	}
}

// TestEstimateConstrainedUnobservable: on IEEE-118 with its zero-injection
// constraints, a bus neither the kept meters nor the constraints touch is
// ErrUnobservable naming its state, as Estimate reports it: its row of G_α
// is empty, so no factor is tried. A leaf bus that one flow meter alone
// touches leaves its angle and magnitude columns parallel, so G_α is
// singular there, and the error wraps the factor's *sparse.PivotError at
// that bus.
func TestEstimateConstrainedUnobservable(t *testing.T) {
	mod := engineTestModel(t, grid.Case118, 1, 3)
	cs := ZeroInjectionConstraints(mod)
	leaf, branch := leafBus(mod, cs, false)
	if leaf < 0 {
		t.Fatal("IEEE-118 has no leaf bus away from the constraints")
	}
	id := mod.Net.Buses[leaf].ID
	oneFlow := func(m meas.Measurement) bool {
		return m.Kind == meas.Pflow && m.Branch == branch && m.FromSide == (mod.Net.Branches[branch].From == id)
	}
	for _, keep := range []func(meas.Measurement) bool{nil, oneFlow} {
		cut := withoutMetersAt(t, mod, leaf, keep)
		_, err := EstimateConstrained(cut, cs, Options{})
		t.Logf("bus %d, %d meters kept: %v", id, len(cut.Meas), err)
		var pe *sparse.PivotError
		switch {
		case !errors.Is(err, ErrUnobservable):
			t.Errorf("bus %d: %v, want ErrUnobservable", id, err)
		case keep == nil && !strings.Contains(err.Error(), fmt.Sprintf("no measurement touches the angle of bus %d", id)):
			t.Errorf("bus %d untouched: %v, want its angle named", id, err)
		case keep != nil && !errors.As(err, &pe):
			t.Errorf("bus %d under one flow: %v, want a *sparse.PivotError", id, err)
		case keep != nil:
			if bus, _ := cut.StateBus(pe.State); bus != leaf {
				t.Errorf("bus %d under one flow: the pivot fails at internal bus %d: %v", id, bus, err)
			}
		}
	}
}

// leafBus returns the first bus of mod's network but the reference with one
// in-service branch, and that branch, whose neighbour across it is the bus
// of a constraint in cs exactly when behind is set, and which is none
// itself; -1 where there is none.
func leafBus(mod *meas.Model, cs []Constraint, behind bool) (leaf, branch int) {
	constrained := map[int]bool{}
	for _, c := range cs {
		constrained[c.Bus] = true
	}
	net := mod.Net
	for b, bus := range net.Buses {
		var at []int
		for bi, br := range net.Branches {
			if br.Status && (br.From == bus.ID || br.To == bus.ID) {
				at = append(at, bi)
			}
		}
		if len(at) != 1 || b == mod.RefBus() || constrained[bus.ID] {
			continue
		}
		if br := net.Branches[at[0]]; constrained[br.From+br.To-bus.ID] == behind {
			return b, at[0]
		}
	}
	return -1, -1
}

// withoutMetersAt returns mod without the meters whose rows touch a state
// of internal bus b, but those keep (nil: none) accepts.
func withoutMetersAt(t *testing.T, mod *meas.Model, b int, keep func(meas.Measurement) bool) *meas.Model {
	t.Helper()
	h := mod.Jacobian(mod.FlatVec())
	var ms []meas.Measurement
	for i, m := range mod.Meas {
		touches := slices.ContainsFunc(h.ColIdx[h.RowPtr[i]:h.RowPtr[i+1]], func(c int) bool {
			bus, _ := mod.StateBus(c)
			return bus == b
		})
		if !touches || keep != nil && keep(m) {
			ms = append(ms, m)
		}
	}
	cut, err := meas.NewModel(mod.Net, ms, mod.RefBus(), mod.RefAngle())
	if err != nil {
		t.Fatal(err)
	}
	return cut
}

// TestEstimateConstrainedWorkers: Workers 1 runs the gain refresh and the
// factor serially and lands on the pooled solve's bits, at IEEE-118 and at
// SynthWECC-12 (192 constraints, held to 1e-10 there too).
func TestEstimateConstrainedWorkers(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() *grid.Network
	}{{"ieee118", grid.Case118}, {"synth-wecc-12", synthWECC(t, 12)}} {
		mod := engineTestModel(t, c.build, 1, 3)
		cs := ZeroInjectionConstraints(mod)
		pooled, err := EstimateConstrained(mod, cs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		serial, err := EstimateConstrained(mod, cs, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(pooled.X, serial.X) || !slices.Equal(pooled.Lambda, serial.Lambda) ||
			!slices.Equal(pooled.Residuals, serial.Residuals) || pooled.ObjectiveJ != serial.ObjectiveJ {
			t.Errorf("%s: Workers 1 differs from the pooled solve", c.name)
		}
		if pooled.MaxConstraintViolation > 1e-10 {
			t.Errorf("%s: constraint violation %.3g over %d constraints", c.name, pooled.MaxConstraintViolation, len(cs))
		}
	}
}

// FuzzConstrainedMatchesKKT draws a network of IEEE-14/30/118, a subset of
// its zero-injection constraints, a noise seed and one meter to drop, and
// holds EstimateConstrained to kktOracle: the same answer within
// matchKKTOracle's bounds, or the same class of error.
func FuzzConstrainedMatchesKKT(f *testing.F) {
	f.Add(uint8(0), uint64(3), int64(1), uint16(0))
	f.Add(uint8(1), ^uint64(0), int64(2), uint16(17))
	f.Add(uint8(2), uint64(0xa5a5), int64(3), uint16(200))
	nets := []*grid.Network{grid.Case14(), grid.Case30(), grid.Case118()}
	truths := make([]powerflow.State, len(nets))
	for i, n := range nets {
		pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true})
		if err != nil {
			f.Fatal(err)
		}
		truths[i] = pf.State
	}
	f.Fuzz(func(t *testing.T, which uint8, subset uint64, seed int64, drop uint16) {
		n, truth := nets[int(which)%len(nets)], truths[int(which)%len(nets)]
		ms, err := meas.Simulate(n, meas.FullPlan().Build(n), truth, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		ms = slices.Delete(ms, int(drop)%len(ms), int(drop)%len(ms)+1)
		ref := n.SlackIndex()
		mod, err := meas.NewModel(n, ms, ref, truth.Va[ref])
		if err != nil {
			t.Fatal(err)
		}
		var cs []Constraint
		for i, c := range ZeroInjectionConstraints(mod) {
			if subset>>(i%64)&1 == 1 {
				cs = append(cs, c)
			}
		}
		what := fmt.Sprintf("%s, %d constraints, seed %d, meter %d dropped", n.Name, len(cs), seed, int(drop)%(len(ms)+1))
		got, err := EstimateConstrained(mod, cs, Options{})
		want, werr := kktOracle(mod, cs, Options{})
		if err != nil || werr != nil {
			if errors.Is(err, ErrUnobservable) != errors.Is(werr, ErrUnobservable) || errors.Is(err, ErrNotConverged) != errors.Is(werr, ErrNotConverged) {
				t.Fatalf("%s: %v; oracle %v", what, err, werr)
			}
			return
		}
		matchKKTOracle(t, what, got, want)
	})
}
