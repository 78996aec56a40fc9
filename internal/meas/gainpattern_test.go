package meas

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/sparse"
)

// gainPatternMismatch names the first place where the closed-form pattern
// of G differs from the one the gain plan walks off the model's Jacobian,
// or returns "".
func gainPatternMismatch(mod *Model) string {
	got, ok := GainPattern(mod.Net, mod.Meas, mod.RefBus())
	if !ok {
		return "GainPattern refused a set NewModel accepted"
	}
	want := sparse.NewGainPlan(mod.NewJacobianPlan().H).G
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Sprintf("closed form is %dx%d, the plan's G %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for _, c := range []struct {
		name      string
		got, want []int
	}{{"RowPtr", got.RowPtr, want.RowPtr}, {"ColIdx", got.ColIdx, want.ColIdx}} {
		for k := range min(len(c.got), len(c.want)) {
			if c.got[k] != c.want[k] {
				return fmt.Sprintf("%s[%d] = %d, the plan's %d", c.name, k, c.got[k], c.want[k])
			}
		}
		if len(c.got) != len(c.want) {
			return fmt.Sprintf("%s has %d entries, the plan's %d", c.name, len(c.got), len(c.want))
		}
	}
	return ""
}

// TestGainPatternMatchesGainPlan: the closed-form pattern of G is the one
// the gain plan walks off H, on IEEE-14/30/118 and SynthWECC-2/4/12 under
// the full SCADA plan and an RTU plan with dropped meters, with the
// reference at the slack, at bus 0 and at the last bus; and on the 5-bus
// network with a parallel circuit and an out-of-service branch, under its
// full plan, a set of Vmag and Angle rows alone, and a set where one bus is
// metered by Vmag only and another by Angle only, which leaves rows of G
// with one entry and rows with none. The Step-1 and Step-2 subsystem models
// are checked in internal/core (TestGainPatternMatchesGainPlanOnSubsystems).
func TestGainPatternMatchesGainPlan(t *testing.T) {
	nets := []*grid.Network{grid.Case14(), grid.Case30(), grid.Case118()}
	for _, areas := range []int{2, 4, 12} {
		n, err := grid.SynthWECC(grid.SynthOptions{Areas: areas, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, n)
	}
	check := func(name string, n *grid.Network, ms []Measurement, ref int) {
		t.Helper()
		mod, err := NewModel(n, ms, ref, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if msg := gainPatternMismatch(mod); msg != "" {
			t.Errorf("%s: %s", name, msg)
		}
	}
	for _, n := range nets {
		for _, ref := range []int{n.SlackIndex(), 0, n.N() - 1} {
			for plan, ms := range map[string][]Measurement{"full": FullPlan().Build(n), "rtu": RTUPlan(3).Build(n)} {
				check(fmt.Sprintf("%s/%s/ref %d", n.Name, plan, ref), n, ms, ref)
			}
		}
	}

	hand := handBuiltNetwork(t)
	sig := DefaultSigmas()
	var lone []Measurement
	for _, b := range hand.Buses {
		lone = append(lone, Measurement{Kind: Vmag, Bus: b.ID, Sigma: sig.Vmag}, Measurement{Kind: Angle, Bus: b.ID, Sigma: sig.Angle})
	}
	// Bus 10's injections reach 20 and 50; 40 has a Vmag row only, 30 (the
	// slack) an Angle row only.
	sparseSet := []Measurement{
		{Kind: Pinj, Bus: 10, Sigma: sig.Pinj}, {Kind: Qinj, Bus: 10, Sigma: sig.Qinj},
		{Kind: Vmag, Bus: 40, Sigma: sig.Vmag}, {Kind: Angle, Bus: 30, Sigma: sig.Angle},
	}
	for _, ref := range []int{hand.SlackIndex(), 0, hand.N() - 1} {
		for name, ms := range map[string][]Measurement{"full": FullPlan().Build(hand), "vmag+angle": lone, "sparse": sparseSet} {
			check(fmt.Sprintf("hand5/%s/ref %d", name, ref), hand, ms, ref)
		}
	}
}

// frameFixtures are the networks FuzzFrameGainPattern draws from.
func frameFixtures() []*grid.Network { return []*grid.Network{grid.Case14(), grid.Case30()} }

// checkFrameGainPattern draws a network and a frame from data and holds
// GainPattern to NewModel: where NewModel accepts the frame, the pattern is
// the one the gain plan walks off the model's Jacobian; where it rejects
// it, GainPattern reports not-ok. The draw, seeded by data, takes branches
// out of service (now and then one left in service with no impedance),
// keeps a random subset of the full plan's meters with some duplicated, and
// makes up to two of them bad: a meter at an unknown bus number, a flow on
// an out-of-range or out-of-service branch, a non-finite value or sigma, a
// zero or negative sigma, no kind. The reference is now and then a random
// bus, or one past either end of the bus range. It reports whether NewModel
// accepted the frame.
func checkFrameGainPattern(t *testing.T, nets []*grid.Network, data []byte) (accepted bool) {
	h := fnv.New64a()
	h.Write(data)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	base := nets[rng.Intn(len(nets))]
	branches := slices.Clone(base.Branches)
	outRate := 0.3 * rng.Float64()
	for i := range branches {
		if rng.Float64() < outRate {
			branches[i].Status = false
		}
	}
	if rng.Intn(16) == 0 {
		k := rng.Intn(len(branches))
		branches[k].R, branches[k].X, branches[k].Status = 0, 0, true
	}
	n, err := grid.New(base.Name, base.BaseMVA, slices.Clone(base.Buses), branches, base.Gens)
	if err != nil {
		t.Fatal(err)
	}
	keep := 0.2 + 0.8*rng.Float64()
	var ms []Measurement
	for _, m := range FullPlan().Build(n) {
		if rng.Float64() >= keep {
			continue
		}
		m.Value = rng.NormFloat64()
		ms = append(ms, m)
		if rng.Intn(8) == 0 {
			ms = append(ms, m)
		}
	}
	var out []int
	for bi, br := range n.Branches {
		if !br.Status {
			out = append(out, bi)
		}
	}
	for range rng.Intn(3) {
		m := Measurement{Kind: Vmag, Bus: n.Buses[0].ID, Sigma: 0.01}
		if len(ms) > 0 && rng.Intn(2) == 0 {
			m = ms[rng.Intn(len(ms))]
		}
		switch rng.Intn(7) {
		case 0:
			m.Kind, m.Bus = Kind(1+rng.Intn(3)), 100000+rng.Intn(100)
		case 1:
			m.Kind, m.Branch = Pflow, []int{-1, len(n.Branches), len(n.Branches) + 1}[rng.Intn(3)]
		case 2:
			if len(out) > 0 {
				m.Kind, m.Branch = Qflow, out[rng.Intn(len(out))]
			}
		case 3:
			m.Value = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		case 4:
			m.Sigma = []float64{0, -0.01, math.Inf(1), math.NaN()}[rng.Intn(4)]
		case 5:
			m.Kind = Kind([]int{0, 7}[rng.Intn(2)])
		}
		ms = append(ms, m)
	}
	ref := n.SlackIndex()
	switch rng.Intn(16) {
	case 0, 1, 2:
		ref = rng.Intn(n.N())
	case 3:
		ref = -1
	case 4:
		ref = n.N()
	}

	mod, modErr := NewModel(n, ms, ref, 0)
	g, ok := GainPattern(n, ms, ref)
	switch {
	case modErr != nil && ok:
		t.Fatalf("NewModel rejects the frame (%v) and GainPattern accepts it", modErr)
	case modErr != nil:
		if g != nil {
			t.Fatal("GainPattern refused the frame but returned a pattern")
		}
	case !ok:
		t.Fatal("NewModel accepts the frame and GainPattern refuses it")
	default:
		if msg := gainPatternMismatch(mod); msg != "" {
			t.Fatal(msg)
		}
	}
	return modErr == nil
}

// frameSeeds are FuzzFrameGainPattern's seed corpus: n draws.
func frameSeeds(n int) [][]byte {
	seeds := make([][]byte, n)
	for i := range seeds {
		seeds[i] = []byte(fmt.Sprint(i))
	}
	return seeds
}

// TestFrameGainPatternSeeds runs 500 of FuzzFrameGainPattern's draws as a
// plain test and checks that they reach both outcomes.
func TestFrameGainPatternSeeds(t *testing.T) {
	nets := frameFixtures()
	seeds := frameSeeds(500)
	accepted := 0
	for i, data := range seeds {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			if checkFrameGainPattern(t, nets, data) {
				accepted++
			}
		})
	}
	t.Logf("%d of %d draws accepted", accepted, len(seeds))
	if accepted < len(seeds)/10 || accepted > len(seeds)*9/10 {
		t.Errorf("%d of %d draws accepted: the draws should reach both outcomes", accepted, len(seeds))
	}
}

func FuzzFrameGainPattern(f *testing.F) {
	nets := frameFixtures()
	for _, data := range frameSeeds(8) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFrameGainPattern(t, nets, data)
	})
}
