// Package contingency implements N-1 contingency screening — one of the
// operational tools the paper's introduction lists as consumers of the
// estimated state ("contingency analysis, optimal power flow, economic
// dispatch"). The screen takes the state estimator's solution, derives bus
// injections, and for every single-branch outage re-solves the DC network
// to flag post-contingency overloads and islanding. A Pool upgrades the
// screen to full what-if AC estimation: per-outage solver sessions re-run
// the WLS estimator on each perturbed topology and carry their symbolic
// plans and numeric anchors across re-screens.
package contingency

import (
	"context"
	"errors"
	"fmt"
	"math"

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
	// Workers parallelizes the CG solves inside each case (0 = GOMAXPROCS).
	Workers int
}

// AutoRatings synthesizes per-branch ratings from a base-case state: each
// in-service branch is rated at max(|base flow|·margin, floor). The IEEE
// test cases carry no MVA ratings, so screening experiments derive them
// from the operating point (margin 1.3 and floor 0.3 pu are typical
// planning-study surrogates). opts configures the base-case DC solve
// (notably Workers for the CG kernels).
func AutoRatings(n *grid.Network, st powerflow.State, margin, floor float64, opts Options) ([]float64, error) {
	if margin <= 1 {
		return nil, fmt.Errorf("contingency: rating margin %g must exceed 1", margin)
	}
	p, err := injectionsFromState(n, st)
	if err != nil {
		return nil, err
	}
	theta, err := solveDC(n, p, -1, opts)
	if err != nil {
		return nil, err
	}
	ratings := make([]float64, len(n.Branches))
	for bi, br := range n.Branches {
		if !br.Status {
			continue
		}
		f := dcBranchFlow(n, theta, br)
		r := math.Abs(f) * margin
		if r < floor {
			r = floor
		}
		ratings[bi] = r
	}
	return ratings, nil
}

// Screen runs the N-1 sweep over every in-service branch, serially, in
// ascending branch order. ratings has one entry per branch (0 =
// unmonitored). The injections come from the estimated (or true) state st.
//
// Error contract (shared with ParallelScreen): on any failure no partial
// results are returned — the error is the one for the lowest-indexed
// failing outage. Cancellation is checked before every case; a canceled
// context aborts the sweep with a wrapped ctx.Err().
func Screen(ctx context.Context, n *grid.Network, st powerflow.State, ratings []float64, opts Options) ([]Result, error) {
	if len(ratings) != len(n.Branches) {
		return nil, fmt.Errorf("contingency: %d ratings for %d branches", len(ratings), len(n.Branches))
	}
	if opts.LoadingThreshold <= 0 {
		opts.LoadingThreshold = 1.0
	}
	p, err := injectionsFromState(n, st)
	if err != nil {
		return nil, err
	}

	chk := newIslandChecker(n)
	var results []Result
	for out, br := range n.Branches {
		if !br.Status {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("contingency: screen canceled at outage %d: %w", out, err)
		}
		res := Result{Outage: out}
		if chk.islands(out) {
			res.Islanding = true
			results = append(results, res)
			continue
		}
		theta, err := solveDC(n, p, out, opts)
		if err != nil {
			return nil, fmt.Errorf("contingency: outage %d: %w", out, err)
		}
		res.Violations = dcViolations(n, theta, ratings, out, opts.LoadingThreshold)
		results = append(results, res)
	}
	return results, nil
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

// ErrIslanding reports that an outage disconnects the network.
var ErrIslanding = errors.New("contingency: outage islands the network")

// islandChecker answers "does removing branch b split its component?" for
// one network. The adjacency is built once per screen and shared by every
// case; the per-query BFS scratch is allocated per call so concurrent
// workers can query the same checker.
type islandChecker struct {
	n   *grid.Network
	adj [][]halfEdge
}

// halfEdge is one directed adjacency entry, tagged with its branch index so
// a query can exclude the outaged branch (and only it — parallel circuits
// between the same buses keep the endpoints connected).
type halfEdge struct {
	to     int
	branch int
}

func newIslandChecker(n *grid.Network) *islandChecker {
	adj := make([][]halfEdge, n.N())
	for bi, br := range n.Branches {
		if !br.Status {
			continue
		}
		f, t := n.MustIndex(br.From), n.MustIndex(br.To)
		adj[f] = append(adj[f], halfEdge{to: t, branch: bi})
		adj[t] = append(adj[t], halfEdge{to: f, branch: bi})
	}
	return &islandChecker{n: n, adj: adj}
}

// islands reports whether removing branch out disconnects its endpoints.
// Removing a single edge can only split the component containing it, and it
// does so exactly when the edge's endpoints end up in different components
// — so the check BFSes from one endpoint looking for the other, rather than
// counting reachable buses from bus 0. The count-based check silently
// assumed a connected base network: on a pre-split system (or one with an
// isolated bus) it misreported every outage as islanding.
func (c *islandChecker) islands(out int) bool {
	br := c.n.Branches[out]
	f, t := c.n.MustIndex(br.From), c.n.MustIndex(br.To)
	if f == t {
		return false
	}
	seen := make([]bool, c.n.N())
	stack := []int{f}
	seen[f] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range c.adj[u] {
			if e.branch == out || seen[e.to] {
				continue
			}
			if e.to == t {
				return false
			}
			seen[e.to] = true
			stack = append(stack, e.to)
		}
	}
	return true
}

// solveDC solves B'·θ = P with branch `out` removed (out < 0 keeps all),
// slack angle pinned to zero. B' is SPD on the reduced system, so the
// Jacobi-preconditioned CG solver applies.
func solveDC(n *grid.Network, p []float64, out int, opts Options) ([]float64, error) {
	nb := n.N()
	slack := n.SlackIndex()
	pos := make([]int, nb) // bus -> reduced index; slack = -1
	ri := 0
	for i := range pos {
		if i == slack {
			pos[i] = -1
			continue
		}
		pos[i] = ri
		ri++
	}
	coo := sparse.NewCOO(ri, ri)
	rhs := make([]float64, ri)
	for i, v := range p {
		if pos[i] >= 0 {
			rhs[pos[i]] = v
		}
	}
	for bi, br := range n.Branches {
		if !br.Status || bi == out || br.X == 0 {
			continue
		}
		bsus := 1 / br.X
		f, t := n.MustIndex(br.From), n.MustIndex(br.To)
		pf, pt := pos[f], pos[t]
		if pf >= 0 {
			coo.Add(pf, pf, bsus)
		}
		if pt >= 0 {
			coo.Add(pt, pt, bsus)
		}
		if pf >= 0 && pt >= 0 {
			coo.Add(pf, pt, -bsus)
			coo.Add(pt, pf, -bsus)
		}
	}
	b := coo.ToCSR()
	jac, err := sparse.NewJacobi(b)
	if err != nil {
		return nil, err
	}
	res, err := sparse.CG(b, rhs, sparse.CGOptions{Tol: 1e-10, Precond: jac, Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	theta := make([]float64, nb)
	for i, pi := range pos {
		if pi >= 0 {
			theta[i] = res.X[pi]
		}
	}
	return theta, nil
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
