package contingency

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/grid"
	"repro/internal/powerflow"
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
	p, err := injectionsFromState(n, st)
	if err != nil {
		t.Fatal(err)
	}
	theta, err := solveDC(n, p, -1, Options{})
	if err != nil {
		t.Fatal(err)
	}
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
	theta, err := solveDC(n, p, -1, Options{})
	if err != nil {
		t.Fatal(err)
	}
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
	// Workers plumbs through to the base-case DC solve.
	r2, err := AutoRatings(n, st, 1.3, 0.3, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for bi := range ratings {
		if math.Abs(ratings[bi]-r2[bi]) > 1e-9 {
			t.Fatalf("branch %d rating differs with workers: %v vs %v", bi, ratings[bi], r2[bi])
		}
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
	if !newIslandChecker(n).islands(0) {
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
	chk := newIslandChecker(n)
	if chk.islands(0) || chk.islands(1) {
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
	chk := newIslandChecker(n)
	for out := 0; out < 6; out++ {
		if chk.islands(out) {
			t.Fatalf("loop outage %d on pre-split network misreported as islanding", out)
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
