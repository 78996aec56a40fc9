package meas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/powerflow"
)

// The kernel takes a site's P row and the Q row right after it as one step
// (opStep). Every plan we build lists the two that way, so the fixtures of
// TestKernelMatchesReference almost never reach the single-row steps. The
// cases here draw the rows of the hand-built 5-bus network and IEEE-14 in
// every arrangement — siblings adjacent, reversed, split, alone and
// duplicated — and hold the plan's pattern and slot map to the two-pass
// build (twoPassJacobianPattern), the closed-form pattern of G to the one
// the gain plan walks off H (gainPatternMismatch), and the kernel to the
// reference evaluator and to the Refresh gradient at a state near flat,
// with zero weights and exact-zero residuals planted on either half of a
// pair, on both, or on a row alone.

// rowOrderFixture is one network the cases draw from.
type rowOrderFixture struct {
	n     *grid.Network
	truth powerflow.State
	sites [][2]Measurement // the P and Q rows of every bus and metered branch end
	lone  []Measurement    // the rows with no sibling: V, and a PMU's V and angle
}

func rowOrderFixtures(tb testing.TB) []rowOrderFixture {
	tb.Helper()
	var fixtures []rowOrderFixture
	for _, n := range []*grid.Network{handBuiltNetwork(tb), grid.Case14()} {
		pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true, MaxIter: 40})
		if err != nil {
			tb.Fatalf("%s: powerflow: %v", n.Name, err)
		}
		fx := rowOrderFixture{n: n, truth: pf.State}
		full := FullPlan().Build(n)
		for i := 0; i < len(full); i++ {
			switch full[i].Kind {
			case Pinj, Pflow: // FullPlan lists each site's Q row right after its P row
				fx.sites = append(fx.sites, [2]Measurement{full[i], full[i+1]})
				i++
			default:
				fx.lone = append(fx.lone, full[i])
			}
		}
		sig := DefaultSigmas()
		for _, b := range n.Buses {
			fx.lone = append(fx.lone,
				Measurement{Kind: Vmag, Bus: b.ID, Sigma: sig.Angle},
				Measurement{Kind: Angle, Bus: b.ID, Sigma: sig.Angle})
		}
		fixtures = append(fixtures, fx)
	}
	return fixtures
}

// checkRowOrder draws a measurement set, a state and the measured values and
// weights from data, checks the kernel at them, and returns how many rows
// took each step. Every input is valid: a short one reads zeros.
func checkRowOrder(t *testing.T, fixtures []rowOrderFixture, data []byte) (steps [stepSibling + 1]int) {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	fx := fixtures[next()%len(fixtures)]
	var ms, split []Measurement
	for draws := 1 + next()%24; draws > 0; draws-- {
		how, site := next()%8, fx.sites[next()%len(fx.sites)]
		p, q := site[0], site[1]
		switch how {
		case 0: // adjacent: a pair
			ms = append(ms, p, q)
		case 1: // reversed
			ms = append(ms, q, p)
		case 2: // P alone
			ms = append(ms, p)
		case 3: // Q alone
			ms = append(ms, q)
		case 4: // a pair, then its Q again
			ms = append(ms, p, q, q)
		case 5: // P, then a pair
			ms = append(ms, p, p, q)
		case 6: // split: the Q row goes last
			ms = append(ms, p)
			split = append(split, q)
		case 7:
			ms = append(ms, fx.lone[next()%len(fx.lone)])
		}
	}
	ms = append(ms, split...)

	ref := fx.n.SlackIndex()
	mod, err := NewModel(fx.n, ms, ref, fx.truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	// Exactly flat, or flat moved by up to ±0.128, ±0.0128 or ±0.00128; and
	// one bus in four dark. At V = 0 a bus's injection derivatives divide 0
	// by 0, so a row weighted to zero must add nothing rather than 0·NaN.
	// (With finite derivatives the two are the same bits: grad starts at +0,
	// and a sum is −0 only when both terms are.)
	x := mod.FlatVec()
	if scale := next() % 4; scale > 0 {
		for i := range x {
			x[i] += float64(int8(next())) * math.Pow(10, -float64(2+scale))
		}
	}
	if dark := next(); dark%4 == 3 {
		x[mod.nAngles+dark/4%fx.n.N()] = 0
	}
	// Rows that add nothing: a zero weight, an exact-zero residual or both,
	// on either half of a pair, on both, or on a row alone.
	z, w, h := mod.Eval(mod.StateToVec(fx.truth)), mod.Weights(), mod.Eval(x)
	for i := range ms {
		switch next() % 8 {
		case 1:
			w[i] = 0
		case 2:
			z[i] = h[i]
		case 3:
			w[i], z[i] = 0, h[i]
		}
	}

	pl := mod.NewJacobianPlan()
	requireJacobianPlanMatchesTwoPass(t, mod, pl)
	requireKernelMatchesReference(t, mod, pl, x)
	requireGradMatchesRefresh(t, mod, pl, x, z, w)
	if msg := gainPatternMismatch(mod); msg != "" {
		t.Fatalf("closed-form gain pattern: %s", msg)
	}
	for _, op := range mod.k.ops {
		steps[op.step]++
	}
	return steps
}

// rowOrderSeeds are the inputs TestKernelRowOrder runs and FuzzKernelRowOrder
// starts from: one of each arrangement on each network, then random bytes.
func rowOrderSeeds() [][]byte {
	var seeds [][]byte
	for net := byte(0); net < 2; net++ {
		for how := byte(0); how < 8; how++ {
			seeds = append(seeds, []byte{net, 3, how, 1, how, 4, how, 7, 2, 1, 2, 3, 4, 5})
		}
	}
	rng := rand.New(rand.NewSource(27))
	for len(seeds) < 96 {
		b := make([]byte, 16+rng.Intn(96))
		rng.Read(b)
		seeds = append(seeds, b)
	}
	return seeds
}

func TestKernelRowOrder(t *testing.T) {
	fixtures := rowOrderFixtures(t)
	var seen [stepSibling + 1]int
	for i, data := range rowOrderSeeds() {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			for s, n := range checkRowOrder(t, fixtures, data) {
				seen[s] += n
			}
		})
	}
	for s, n := range seen {
		if n == 0 {
			t.Errorf("no case took step %d", s)
		}
	}
}

func FuzzKernelRowOrder(f *testing.F) {
	fixtures := rowOrderFixtures(f)
	for _, data := range rowOrderSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRowOrder(t, fixtures, data)
	})
}
