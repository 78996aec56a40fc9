// Package contingency implements N-1 contingency screening — one of the
// operational tools the paper's introduction lists as consumers of the
// estimated state ("contingency analysis, optimal power flow, economic
// dispatch"). The screen takes the state estimator's solution, derives bus
// injections, and for every single-branch outage re-solves the DC network —
// a rank-one update of one factorization of the intact network's B′ — to
// flag post-contingency overloads and islanding. A Pool upgrades the
// screen to full what-if AC estimation: per-outage solver sessions re-run
// the WLS estimator on each perturbed topology and carry their symbolic
// plans and numeric anchors across re-screens.
package contingency

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/grid"
	"repro/internal/powerflow"
	"repro/internal/sparse"
)

// Violation is one post-contingency branch overload.
type Violation struct {
	Branch  int     // overloaded branch (index into Network.Branches)
	Flow    float64 // post-contingency flow, pu (signed, From->To)
	Rating  float64 // branch rating, pu
	Loading float64 // |Flow| / Rating
}

// Result reports one N-1 case.
type Result struct {
	Outage     int  // branch taken out
	Islanding  bool // outage splits the network (no DC solution attempted)
	Violations []Violation
}

// Options tunes the screen.
type Options struct {
	// LoadingThreshold flags branches above this fraction of their rating
	// (default 1.0 — report only true overloads).
	LoadingThreshold float64
}

// AutoRatings synthesizes per-branch ratings from a base-case state: each
// in-service branch is rated at max(|base flow|·margin, floor). The IEEE
// test cases carry no MVA ratings, so screening experiments derive them
// from the operating point (margin 1.3 and floor 0.3 pu are typical
// planning-study surrogates). No field of Options applies to the ratings.
// A base network with a bus that has no path to the slack fails with
// ErrIslanding, as Screen and ParallelScreen do.
func AutoRatings(n *grid.Network, st powerflow.State, margin, floor float64, _ Options) ([]float64, error) {
	if margin <= 1 {
		return nil, fmt.Errorf("contingency: rating margin %g must exceed 1", margin)
	}
	dc, err := newDCScreen(n, st)
	if err != nil {
		return nil, err
	}
	ratings := make([]float64, len(n.Branches))
	for bi, br := range n.Branches {
		if !br.Status {
			continue
		}
		f := dcBranchFlow(n, dc.theta0, br)
		r := math.Abs(f) * margin
		if r < floor {
			r = floor
		}
		ratings[bi] = r
	}
	return ratings, nil
}

// Screen runs the N-1 sweep over every in-service branch, serially, in
// ascending branch order: ParallelScreen with one worker. ratings has one
// entry per branch (0 = unmonitored). The injections come from the estimated
// (or true) state st.
//
// Error contract (shared with ParallelScreen): on any failure no partial
// results are returned. A base network with a bus that has no path to the
// slack fails before the first case with ErrIslanding naming the bus.
// Cancellation is checked before every case; a canceled context aborts the
// sweep with a wrapped ctx.Err().
func Screen(ctx context.Context, n *grid.Network, st powerflow.State, ratings []float64, opts Options) ([]Result, error) {
	return ParallelScreen(ctx, n, st, ratings, ParallelOptions{Options: opts, Workers: 1})
}

// dcViolations scans the post-contingency DC angles for overloaded
// monitored branches (the outaged branch itself is never reported).
func dcViolations(n *grid.Network, theta, ratings []float64, out int, threshold float64) []Violation {
	var vs []Violation
	for bi, br := range n.Branches {
		if !br.Status || bi == out || ratings[bi] <= 0 {
			continue
		}
		f := dcBranchFlow(n, theta, br)
		if loading := math.Abs(f) / ratings[bi]; loading >= threshold {
			vs = append(vs, Violation{Branch: bi, Flow: f, Rating: ratings[bi], Loading: loading})
		}
	}
	return vs
}

// injectionsFromState computes net active injections (pu) from the AC
// state, then removes the average so the lossless DC model balances.
func injectionsFromState(n *grid.Network, st powerflow.State) ([]float64, error) {
	if len(st.Vm) != n.N() {
		return nil, fmt.Errorf("contingency: state has %d buses, network %d", len(st.Vm), n.N())
	}
	p, _ := powerflow.Injections(n, st)
	mean := 0.0
	for _, v := range p {
		mean += v
	}
	mean /= float64(len(p))
	out := make([]float64, len(p))
	for i, v := range p {
		out[i] = v - mean
	}
	return out, nil
}

// ErrIslanding reports that an outage disconnects the network, or that the
// base network is already split with a part the slack does not reach.
var ErrIslanding = errors.New("contingency: outage islands the network")

// bridges reports, by branch index, which branches of n island when taken
// out: the in-service branches that are bridges of the in-service graph,
// whose removal disconnects their two ends. It is Tarjan's low-link in one
// iterative depth-first pass over every component, so a pre-split base or an
// isolated bus is handled like any other component. Branches are told apart
// by index, not by their end pair, so each of two parallel circuits keeps the
// other's ends connected and neither is a bridge; a self-loop (From == To)
// is never a tree edge, so never islands, and an out-of-service branch reads
// false.
func bridges(n *grid.Network) []bool {
	nb := n.N()
	// The in-service adjacency in one flat array: bus u's half-edges are
	// adj[off[u]:off[u+1]].
	off := make([]int, nb+1)
	for _, br := range n.Branches {
		if br.Status {
			off[n.MustIndex(br.From)+1]++
			off[n.MustIndex(br.To)+1]++
		}
	}
	for u := 0; u < nb; u++ {
		off[u+1] += off[u]
	}
	adj := make([]halfEdge, off[nb])
	fill := append([]int(nil), off[:nb]...)
	for bi, br := range n.Branches {
		if br.Status {
			f, t := n.MustIndex(br.From), n.MustIndex(br.To)
			adj[fill[f]], fill[f] = halfEdge{to: t, branch: bi}, fill[f]+1
			adj[fill[t]], fill[t] = halfEdge{to: f, branch: bi}, fill[t]+1
		}
	}

	isBridge := make([]bool, len(n.Branches))
	// disc is a bus's discovery number from 1 (0: not reached yet) and low
	// the least discovery number its subtree reaches by one non-tree edge.
	disc, low := make([]int, nb), make([]int, nb)
	// Each frame of the explicit stack is a bus on the DFS path, the branch
	// it was entered by (-1 at a root) and its next half-edge to scan.
	type frame struct{ u, in, next int }
	stack := make([]frame, 0, nb)
	clock := 0
	for root := 0; root < nb; root++ {
		if disc[root] != 0 {
			continue
		}
		clock++
		disc[root], low[root] = clock, clock
		stack = append(stack, frame{u: root, in: -1, next: off[root]})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			u := top.u
			if top.next < off[u+1] {
				e := adj[top.next]
				top.next++
				switch {
				case e.branch == top.in:
					// The tree edge back to the parent; a parallel circuit
					// to it is another branch and counts below.
				case disc[e.to] == 0:
					clock++
					disc[e.to], low[e.to] = clock, clock
					stack = append(stack, frame{u: e.to, in: e.branch, next: off[e.to]})
				default:
					low[u] = min(low[u], disc[e.to])
				}
				continue
			}
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := stack[len(stack)-1].u
				low[p] = min(low[p], low[u])
				if low[u] > disc[p] {
					isBridge[top.in] = true
				}
			}
		}
	}
	return isBridge
}

// halfEdge is one directed adjacency entry, tagged with its branch index so
// that parallel circuits between the same buses stay distinct edges.
type halfEdge struct {
	to     int
	branch int
}

// dcScreen is the DC model of one network for a whole N-1 sweep: B′ of the
// intact network, its slack row and column replaced by θ_slack = 0, factored
// once, and the base angles θ₀ = B′⁻¹P. Taking out branch k, of susceptance b
// and incidence a (+1 at its from bus, −1 at its to bus, 0 at the slack),
// leaves B′ − b·a·aᵀ, so by Sherman–Morrison
//
//	θ = θ₀ + y · b(aᵀθ₀) / (1 − b·aᵀy),  y = B′⁻¹a:
//
// one substitution and a scalar per outage, the line-outage distribution
// factor of branch k. The denominator vanishes exactly when the outage
// islands, which the sweep leaves to bridges.
type dcScreen struct {
	n      *grid.Network
	slack  int
	theta0 []float64
	// solvers holds *dcSolver: Apply writes its factor's own scratch, so each
	// case in flight takes one.
	solvers sync.Pool
}

// dcSolver is a factor of B′ sharing the base factor's analysis, with the
// scratch of one outage.
type dcSolver struct {
	f    *sparse.LDLFactor
	a, y []float64
}

// newDCScreen builds and factors B′ and solves the base case for the
// injections of st. A bus with no path to the slack makes B′ singular, and
// the factor's breakdown names it: the error is ErrIslanding.
func newDCScreen(n *grid.Network, st powerflow.State) (*dcScreen, error) {
	p, err := injectionsFromState(n, st)
	if err != nil {
		return nil, err
	}
	nb, slack := n.N(), n.SlackIndex()
	coo := sparse.NewCOO(nb, nb)
	for i := 0; i < nb; i++ {
		coo.Add(i, i, 0) // a bus no branch reaches still has its pivot
	}
	coo.Add(slack, slack, 1)
	add := func(i, j int, v float64) {
		if i != slack && j != slack {
			coo.Add(i, j, v)
		}
	}
	for _, br := range n.Branches {
		if br.Status && br.X != 0 {
			f, t := n.MustIndex(br.From), n.MustIndex(br.To)
			add(f, f, 1/br.X)
			add(t, t, 1/br.X)
			add(f, t, -1/br.X)
			add(t, f, -1/br.X)
		}
	}
	bp := coo.ToCSR()
	base, err := sparse.NewLDL(bp)
	var pe *sparse.PivotError
	if errors.As(err, &pe) {
		return nil, fmt.Errorf("%w: bus %d has no path to the slack", ErrIslanding, n.Buses[pe.State].ID)
	}
	if err != nil {
		return nil, fmt.Errorf("contingency: DC base case: %w", err)
	}
	s := &dcScreen{n: n, slack: slack, theta0: make([]float64, nb)}
	s.solvers.New = func() any {
		f := base.SharePattern()
		if err := f.Refresh(bp); err != nil {
			panic(err) // base factored this very B′, and a refresh is deterministic
		}
		return &dcSolver{f: f, a: make([]float64, nb), y: make([]float64, nb)}
	}
	p[slack] = 0
	base.Apply(s.theta0, p)
	return s, nil
}

// outage returns the bus angles with in-service branch out taken out, and
// the Sherman–Morrison denominator 1 − b·aᵀy, which is zero (to roundoff)
// exactly when the outage islands: the angles are then meaningless.
func (s *dcScreen) outage(out int) (theta []float64, den float64) {
	theta = slices.Clone(s.theta0)
	br := s.n.Branches[out]
	if br.X == 0 {
		return theta, 1 // never in B′
	}
	w := s.solvers.Get().(*dcSolver)
	defer s.solvers.Put(w)
	f, t := s.n.MustIndex(br.From), s.n.MustIndex(br.To)
	w.a[f]++
	w.a[t]--
	w.a[s.slack] = 0
	w.f.Apply(w.y, w.a)
	w.a[f], w.a[t] = 0, 0
	b := 1 / br.X
	den = 1 - b*(w.y[f]-w.y[t]) // y is 0 at the slack
	sparse.Axpy(b*(s.theta0[f]-s.theta0[t])/den, w.y, theta)
	return theta, den
}

// dcBranchFlow returns the DC flow on a branch: (θ_f − θ_t)/x.
func dcBranchFlow(n *grid.Network, theta []float64, br grid.Branch) float64 {
	if br.X == 0 {
		return 0
	}
	f, t := n.MustIndex(br.From), n.MustIndex(br.To)
	return (theta[f] - theta[t]) / br.X
}

// Summary condenses a screen into counts: total cases, islanding cases and
// cases with at least one violation.
func Summary(results []Result) (cases, islanding, insecure int) {
	cases = len(results)
	for _, r := range results {
		if r.Islanding {
			islanding++
		}
		if len(r.Violations) > 0 {
			insecure++
		}
	}
	return
}
