package contingency

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/powerflow"
	"repro/internal/sparse"
)

func solved(t *testing.T, n *grid.Network) powerflow.State {
	t.Helper()
	res, err := powerflow.Solve(n, powerflow.Options{FlatStart: true})
	if err != nil {
		t.Fatalf("powerflow: %v", err)
	}
	return res.State
}

func TestDCFlowMatchesACRoughly(t *testing.T) {
	// DC flows should approximate AC active flows within ~10-15% of the
	// larger flows on a lightly loaded system.
	n := grid.Case14()
	st := solved(t, n)
	dc, err := newDCScreen(n, st)
	if err != nil {
		t.Fatal(err)
	}
	theta := dc.theta0
	// Branch 0 is 1-2, the heaviest corridor (~1.5 pu AC).
	f := dcBranchFlow(n, theta, n.Branches[0])
	if f < 1.0 || f > 2.0 {
		t.Fatalf("DC flow on 1-2 = %v pu, expected ~1.5", f)
	}
	// DC angles should correlate with AC angles (same ordering sign).
	for i := range theta {
		if st.Va[i] < -0.05 && theta[i] > 0.05 {
			t.Fatalf("bus %d: DC angle %v has wrong sign vs AC %v", i, theta[i], st.Va[i])
		}
	}
}

func TestAutoRatingsCoverBaseCase(t *testing.T) {
	n := grid.Case118()
	st := solved(t, n)
	ratings, err := AutoRatings(n, st, 1.3, 0.3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := injectionsFromState(n, st)
	theta := rebuiltDC(t, n, p, -1)
	for bi, br := range n.Branches {
		if !br.Status {
			continue
		}
		if ratings[bi] <= 0 {
			t.Fatalf("branch %d unrated", bi)
		}
		if f := math.Abs(dcBranchFlow(n, theta, br)); f > ratings[bi] {
			t.Fatalf("base case violates its own rating on branch %d: %v > %v", bi, f, ratings[bi])
		}
	}
	if _, err := AutoRatings(n, st, 0.9, 0.3, Options{}); err == nil {
		t.Fatal("margin < 1 accepted")
	}
}

func TestScreenIEEE118(t *testing.T) {
	n := grid.Case118()
	st := solved(t, n)
	ratings, err := AutoRatings(n, st, 1.3, 0.3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := Screen(context.Background(), n, st, ratings, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases, islanding, insecure := Summary(results)
	if cases != len(n.InService()) {
		t.Fatalf("screened %d cases, want %d", cases, len(n.InService()))
	}
	// Radial spurs (e.g. 9-10 toward the big unit at 10, 86-87, 110-111,
	// 110-112, 68-116, 12-117) island on outage.
	if islanding == 0 {
		t.Error("IEEE-118 has radial branches; expected islanding cases")
	}
	// A 1.3 margin leaves some N-1 overloads on heavy corridors.
	if insecure == 0 {
		t.Error("expected at least one insecure case at 1.3 rating margin")
	}
	t.Logf("cases=%d islanding=%d insecure=%d", cases, islanding, insecure)
	for _, r := range results {
		for _, v := range r.Violations {
			if v.Loading < 1.0 {
				t.Fatalf("violation below threshold reported: %+v", v)
			}
			if v.Branch == r.Outage {
				t.Fatalf("outaged branch reported as overloaded")
			}
		}
	}
}

func TestScreenGenerousRatingsAllSecure(t *testing.T) {
	n := grid.Case14()
	st := solved(t, n)
	ratings, err := AutoRatings(n, st, 10, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := Screen(context.Background(), n, st, ratings, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, insecure := Summary(results)
	if insecure != 0 {
		t.Fatalf("%d insecure cases with 10x ratings", insecure)
	}
}

func TestScreenValidation(t *testing.T) {
	n := grid.Case14()
	st := solved(t, n)
	ctx := context.Background()
	if _, err := Screen(ctx, n, st, []float64{1}, Options{}); err == nil {
		t.Fatal("short ratings accepted")
	}
	bad := powerflow.State{Vm: []float64{1}, Va: []float64{0}}
	ratings := make([]float64, len(n.Branches))
	if _, err := Screen(ctx, n, bad, ratings, Options{}); err == nil {
		t.Fatal("mismatched state accepted")
	}
}

func TestScreenCancellation(t *testing.T) {
	n := grid.Case14()
	st := solved(t, n)
	ratings, err := AutoRatings(n, st, 2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Screen(ctx, n, st, ratings, Options{})
	if err == nil {
		t.Fatal("pre-canceled context accepted")
	}
	if res != nil {
		t.Fatal("partial results returned on cancellation")
	}
}

func TestIslandsDetection(t *testing.T) {
	// Two buses, one line: removing it islands.
	buses := []grid.Bus{{ID: 1, Type: grid.Slack, Vm: 1}, {ID: 2, Type: grid.PQ, Vm: 1}}
	branches := []grid.Branch{{From: 1, To: 2, X: 0.1, Status: true}}
	n, err := grid.New("radial", 100, buses, branches, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !islandingVerdicts(t, n)[0] {
		t.Fatal("radial outage not flagged as islanding")
	}
}

func TestIslandsParallelCircuits(t *testing.T) {
	// Two buses joined by two parallel circuits: losing one is not an
	// islanding event — the exclusion must be by branch index, not by
	// endpoint pair.
	buses := []grid.Bus{{ID: 1, Type: grid.Slack, Vm: 1}, {ID: 2, Type: grid.PQ, Vm: 1}}
	branches := []grid.Branch{
		{From: 1, To: 2, X: 0.1, Status: true},
		{From: 1, To: 2, X: 0.2, Status: true},
	}
	n, err := grid.New("parallel", 100, buses, branches, nil)
	if err != nil {
		t.Fatal(err)
	}
	if islanding := islandingVerdicts(t, n); islanding[0] || islanding[1] {
		t.Fatal("parallel-circuit outage misreported as islanding")
	}
}

func TestIslandsDisconnectedBase(t *testing.T) {
	// Regression: the old check BFSed from bus 0 and compared the reached
	// count against the total bus count, silently assuming a connected base
	// network. On a pre-split system every outage — including one on a
	// looped, fully redundant component — was misreported as islanding.
	buses := []grid.Bus{
		// Component A: triangle 1-2-3 (bus 0 side).
		{ID: 1, Type: grid.Slack, Vm: 1}, {ID: 2, Type: grid.PQ, Vm: 1}, {ID: 3, Type: grid.PQ, Vm: 1},
		// Component B: triangle 4-5-6, disconnected from A.
		{ID: 4, Type: grid.PQ, Vm: 1}, {ID: 5, Type: grid.PQ, Vm: 1}, {ID: 6, Type: grid.PQ, Vm: 1},
	}
	branches := []grid.Branch{
		{From: 1, To: 2, X: 0.1, Status: true},
		{From: 2, To: 3, X: 0.1, Status: true},
		{From: 3, To: 1, X: 0.1, Status: true},
		{From: 4, To: 5, X: 0.1, Status: true},
		{From: 5, To: 6, X: 0.1, Status: true},
		{From: 6, To: 4, X: 0.1, Status: true},
		// A radial spur off component B: its outage does island.
		{From: 6, To: 5, X: 0.1, Status: false}, // out of service, ignored
	}
	n, err := grid.New("split", 100, buses, branches, nil)
	if err != nil {
		t.Fatal(err)
	}
	islanding := islandingVerdicts(t, n)
	for out := 0; out < 6; out++ {
		if islanding[out] {
			t.Fatalf("loop outage %d on pre-split network misreported as islanding", out)
		}
	}
}

// rebuiltDC is the DC solve the screen ran per outage before it factored B′
// once: B′ assembled afresh with branch out removed (out < 0 keeps all), the
// slack pinned to zero, and Jacobi-preconditioned CG, here to a relative
// residual of 1e-13. It calls nothing the screen runs.
func rebuiltDC(t *testing.T, n *grid.Network, p []float64, out int) []float64 {
	t.Helper()
	slack := n.SlackIndex()
	pos := make([]int, n.N())
	rows := 0
	for i := range pos {
		pos[i] = -1
		if i != slack {
			pos[i] = rows
			rows++
		}
	}
	coo := sparse.NewCOO(rows, rows)
	rhs := make([]float64, rows)
	for i, v := range p {
		if pos[i] >= 0 {
			rhs[pos[i]] = v
		}
	}
	for bi, br := range n.Branches {
		if !br.Status || bi == out || br.X == 0 {
			continue
		}
		b := 1 / br.X
		f, to := pos[n.MustIndex(br.From)], pos[n.MustIndex(br.To)]
		if f >= 0 {
			coo.Add(f, f, b)
		}
		if to >= 0 {
			coo.Add(to, to, b)
		}
		if f >= 0 && to >= 0 {
			coo.Add(f, to, -b)
			coo.Add(to, f, -b)
		}
	}
	bp := coo.ToCSR()
	jac, err := sparse.NewJacobi(bp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sparse.CG(bp, rhs, sparse.CGOptions{Tol: 1e-13, Precond: jac})
	if err != nil {
		t.Fatalf("outage %d: %v", out, err)
	}
	theta := make([]float64, n.N())
	for i, r := range pos {
		if r >= 0 {
			theta[i] = res.X[r]
		}
	}
	return theta
}

// screenCases are the networks the one-factor DC screen is held to its
// oracle on, with their solved states.
func screenCases(t *testing.T) map[string]*grid.Network {
	t.Helper()
	wecc, err := grid.SynthWECC(grid.SynthOptions{Areas: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*grid.Network{"ieee14": grid.Case14(), "ieee30": grid.Case30(), "ieee118": grid.Case118(), "synth-wecc-4": wecc}
}

// TestDCOutagesMatchRebuiltB: every outage of the one-factor screen — the
// base factor plus a rank-one update — against B′ rebuilt without the branch
// and solved by CG: every branch flow within 1e-9 pu and the same violation
// list, on IEEE-14, -30, -118 and the 4-area synthetic WECC.
func TestDCOutagesMatchRebuiltB(t *testing.T) {
	for name, n := range screenCases(t) {
		pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true, MaxIter: 40})
		if err != nil {
			t.Fatalf("%s: powerflow: %v", name, err)
		}
		ratings, err := AutoRatings(n, pf.State, 1.3, 0.3, Options{})
		if err != nil {
			t.Fatal(err)
		}
		results, err := Screen(context.Background(), n, pf.State, ratings, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, _ := injectionsFromState(n, pf.State)
		dc, err := newDCScreen(n, pf.State)
		if err != nil {
			t.Fatal(err)
		}
		violations := 0
		for _, r := range results {
			if r.Islanding {
				continue
			}
			want := rebuiltDC(t, n, p, r.Outage)
			got, _ := dc.outage(r.Outage)
			for bi, br := range n.Branches {
				if br.Status && bi != r.Outage {
					if d := math.Abs(dcBranchFlow(n, got, br) - dcBranchFlow(n, want, br)); d > 1e-9 {
						t.Fatalf("%s: outage %d: flow on branch %d off the rebuilt solve by %g pu", name, r.Outage, bi, d)
					}
				}
			}
			wantV := dcViolations(n, want, ratings, r.Outage, 1)
			if len(wantV) != len(r.Violations) {
				t.Fatalf("%s: outage %d: %d violations, rebuilt solve %d", name, r.Outage, len(r.Violations), len(wantV))
			}
			for k, v := range wantV {
				if r.Violations[k].Branch != v.Branch {
					t.Fatalf("%s: outage %d: violation %d on branch %d, rebuilt solve %d", name, r.Outage, k, r.Violations[k].Branch, v.Branch)
				}
			}
			violations += len(wantV)
		}
		t.Logf("%s: %d cases, %d violations", name, len(results), violations)
	}
}

// TestDCDenominatorIsIslanding: the Sherman–Morrison denominator 1 − b·aᵀy
// vanishes on exactly the outages the bridge pass calls islanding (checked
// against islandChecker), on every in-service branch of the oracle networks
// and of two parallel circuits.
func TestDCDenominatorIsIslanding(t *testing.T) {
	nets := screenCases(t)
	buses := []grid.Bus{{ID: 1, Type: grid.Slack, Vm: 1}, {ID: 2, Type: grid.PQ, Vm: 1}, {ID: 3, Type: grid.PQ, Vm: 1}}
	parallel, err := grid.New("parallel", 100, buses, []grid.Branch{
		{From: 1, To: 2, X: 0.1, Status: true},
		{From: 1, To: 2, X: 0.2, Status: true},
		{From: 2, To: 3, X: 0.1, Status: true},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nets["parallel"] = parallel
	for name, n := range nets {
		flat := powerflow.State{Vm: make([]float64, n.N()), Va: make([]float64, n.N())}
		dc, err := newDCScreen(n, flat) // the denominator does not depend on the injections
		if err != nil {
			t.Fatal(err)
		}
		verdicts := islandingVerdicts(t, n)
		islanding := 0
		for out, br := range n.Branches {
			if !br.Status {
				continue
			}
			_, den := dc.outage(out)
			if islands := verdicts[out]; islands != (math.Abs(den) <= 1e-10) {
				t.Errorf("%s: outage %d: denominator %g, the bridge pass says islanding %v", name, out, den, islands)
			} else if islands {
				islanding++
			}
		}
		t.Logf("%s: %d islanding outages", name, islanding)
	}
}

// TestPreSplitBaseFailsExplicitly: two triangles with no branch between them
// and the slack in one. The other has no angle reference, so B′ is singular
// and no DC case has an answer. Lossless, its injections happened to be
// consistent and CG returned some solution everywhere; lossy, AutoRatings
// still did and the screens failed at an outage with CG's "not positive
// definite". Every entry point now fails before any case with ErrIslanding
// naming a bus of the second triangle.
func TestPreSplitBaseFailsExplicitly(t *testing.T) {
	for _, r := range []float64{0, 0.02} {
		buses := []grid.Bus{
			{ID: 1, Type: grid.Slack, Vm: 1}, {ID: 2, Type: grid.PQ, Vm: 1}, {ID: 3, Type: grid.PQ, Vm: 1},
			{ID: 4, Type: grid.PQ, Vm: 1}, {ID: 5, Type: grid.PQ, Vm: 1}, {ID: 6, Type: grid.PQ, Vm: 1},
		}
		var branches []grid.Branch
		for _, e := range [][2]int{{1, 2}, {2, 3}, {3, 1}, {4, 5}, {5, 6}, {6, 4}} {
			branches = append(branches, grid.Branch{From: e[0], To: e[1], R: r, X: 0.1, Status: true})
		}
		n, err := grid.New("split", 100, buses, branches, nil)
		if err != nil {
			t.Fatal(err)
		}
		st := powerflow.State{Vm: []float64{1, 1.01, 0.99, 1, 1.02, 0.98}, Va: []float64{0, -0.05, -0.02, 0.1, 0.04, -0.03}}
		ratings := make([]float64, len(branches))
		for i := range ratings {
			ratings[i] = 1
		}
		ctx := context.Background()
		_, errRatings := AutoRatings(n, st, 1.3, 0.3, Options{})
		_, errScreen := Screen(ctx, n, st, ratings, Options{})
		_, errParallel := ParallelScreen(ctx, n, st, ratings, ParallelOptions{Workers: 2})
		for entry, err := range map[string]error{"AutoRatings": errRatings, "Screen": errScreen, "ParallelScreen": errParallel} {
			if !errors.Is(err, ErrIslanding) || !strings.Contains(err.Error(), "has no path to the slack") {
				t.Errorf("R = %g: %s: %v, want ErrIslanding naming a bus with no path to the slack", r, entry, err)
			} else if !strings.Contains(err.Error(), "bus 4 ") && !strings.Contains(err.Error(), "bus 5 ") && !strings.Contains(err.Error(), "bus 6 ") {
				t.Errorf("R = %g: %s: %v names a bus of the slack's triangle", r, entry, err)
			}
		}
	}
}

// The flow constants resolved once per pool are the two-port model: against
// the complex-power definition Sf = Vf·conj(If), tap and phase shift
// included, on every branch of a solved case.
func TestFromEndFlowMatchesComplexPower(t *testing.T) {
	n := grid.Case14().Clone()
	n.Branches[7].Shift = 0.06 // a tapped transformer (4-7), made a phase shifter too
	st := solved(t, n)
	for bi, br := range n.Branches {
		ys := 1 / complex(br.R, br.X)
		tap := br.Tap
		if tap == 0 {
			tap = 1
		}
		a := cmplx.Rect(tap, br.Shift)
		f, to := n.MustIndex(br.From), n.MustIndex(br.To)
		vf, vt := cmplx.Rect(st.Vm[f], st.Va[f]), cmplx.Rect(st.Vm[to], st.Va[to])
		want := real(vf * cmplx.Conj((ys+complex(0, br.B/2))/complex(tap*tap, 0)*vf-ys/cmplx.Conj(a)*vt))
		e := newFromEnd(n, br)
		if got := e.flow(st); math.Abs(got-want) > 1e-12 {
			t.Errorf("branch %d: flow %v, Re(Vf·conj(If)) = %v", bi, got, want)
		}
	}
}

func TestACBranchFlowMatchesDCRoughly(t *testing.T) {
	n := grid.Case14()
	st := solved(t, n)
	// Branch 0 (1-2) carries ~1.5 pu AC; the AC evaluation from the solved
	// state must land in the same range the model's Pflow telemetry would.
	e := newFromEnd(n, n.Branches[0])
	f := e.flow(st)
	if f < 1.0 || f > 2.0 {
		t.Fatalf("AC flow on 1-2 = %v pu, expected ~1.5", f)
	}
}
