package contingency

import (
	"testing"

	"repro/internal/grid"
)

// islandChecker is the test oracle for bridges: it answers "does removing
// branch b split its component?" with one breadth-first search per query,
// the check the screens ran per outage before the bridge pass.
type islandChecker struct {
	n   *grid.Network
	adj [][]halfEdge
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

// islands reports whether removing branch out disconnects its endpoints. A
// single edge can only split the component containing it, and it does so
// exactly when its endpoints end up in different components, so the search
// starts at one endpoint and looks for the other; counting the buses reached
// from bus 0 would assume a connected base network.
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

// islandingVerdicts returns bridges(n) after checking it against the oracle
// on every in-service branch, and that no out-of-service branch reads true.
func islandingVerdicts(t *testing.T, n *grid.Network) []bool {
	t.Helper()
	got := bridges(n)
	if len(got) != len(n.Branches) {
		t.Fatalf("%s: %d verdicts for %d branches", n.Name, len(got), len(n.Branches))
	}
	chk := newIslandChecker(n)
	for bi, br := range n.Branches {
		want := br.Status && chk.islands(bi)
		if got[bi] != want {
			t.Fatalf("%s: branch %d (%d-%d, in service %v): bridge pass says islanding %v, BFS oracle %v",
				n.Name, bi, br.From, br.To, br.Status, got[bi], want)
		}
	}
	return got
}

// handBuilt returns the bridge pass's corner cases: each network is built
// with grid.New and then edited, since New refuses a self-loop.
func handBuilt(t *testing.T) []*grid.Network {
	t.Helper()
	mk := func(name string, nb int, edges [][2]int, edit func(n *grid.Network)) *grid.Network {
		buses := make([]grid.Bus, nb)
		for i := range buses {
			buses[i] = grid.Bus{ID: 10 * (i + 1), Type: grid.PQ, Vm: 1}
		}
		buses[0].Type = grid.Slack
		branches := make([]grid.Branch, len(edges))
		for k, e := range edges {
			branches[k] = grid.Branch{From: buses[e[0]].ID, To: buses[e[1]].ID, X: 0.1, Status: true}
		}
		n, err := grid.New(name, 100, buses, branches, nil)
		if err != nil {
			t.Fatal(err)
		}
		if edit != nil {
			edit(n)
		}
		return n
	}
	return []*grid.Network{
		// Two parallel circuits 0-1, then a radial 1-2: only the radial
		// branch islands.
		mk("parallel", 3, [][2]int{{0, 1}, {0, 1}, {1, 2}}, nil),
		// A triangle whose branch 3 is made a self-loop at bus 1: it never
		// islands, and the triangle's branches stay looped.
		mk("self-loop", 3, [][2]int{{0, 1}, {1, 2}, {2, 0}, {1, 2}}, func(n *grid.Network) {
			n.Branches[3].To = n.Branches[3].From
		}),
		// A ring whose closing branch is out of service: the rest is a path,
		// every in-service branch of it a bridge.
		mk("out-of-service", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, func(n *grid.Network) {
			n.Branches[3].Status = false
		}),
		// Bus 3 has no branch at all; the triangle is looped and 0-4 radial.
		mk("isolated-bus", 5, [][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 4}}, nil),
		// Two triangles with no branch between them, the second with a
		// radial spur, and an out-of-service branch that would loop it.
		mk("pre-split", 7, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {5, 6}, {6, 3}}, func(n *grid.Network) {
			n.Branches[7].Status = false
		}),
	}
}

// TestBridgesMatchIslandChecker: the bridge pass agrees with the per-outage
// BFS on every branch of the IEEE cases, the synthetic WECC systems and the
// hand-built corner cases, and the hand-built ones island exactly where
// they are drawn to.
func TestBridgesMatchIslandChecker(t *testing.T) {
	nets := []*grid.Network{grid.Case14(), grid.Case30(), grid.Case118()}
	for _, areas := range []int{4, 12, 37} {
		n, err := grid.SynthWECC(grid.SynthOptions{Areas: areas, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, n)
	}
	for _, n := range nets {
		islanding := 0
		for _, b := range islandingVerdicts(t, n) {
			if b {
				islanding++
			}
		}
		t.Logf("%s: %d of %d branches island", n.Name, islanding, len(n.Branches))
	}
	want := map[string][]bool{
		"parallel":       {false, false, true},
		"self-loop":      {false, false, false, false},
		"out-of-service": {true, true, true, false},
		"isolated-bus":   {false, false, false, true},
		"pre-split":      {false, false, false, false, false, false, true, false},
	}
	for _, n := range handBuilt(t) {
		got := islandingVerdicts(t, n)
		for bi, w := range want[n.Name] {
			if got[bi] != w {
				t.Errorf("%s: branch %d islands %v, want %v", n.Name, bi, got[bi], w)
			}
		}
	}
}

// FuzzBridges checks the bridge pass against the BFS oracle on random
// multigraphs: up to 16 buses, each triple of data bytes a branch (its two
// ends and whether it is in service), parallel circuits, self-loops and
// disconnected parts included.
func FuzzBridges(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 0, 1, 2, 0, 2, 0, 0})
	f.Add(uint8(2), []byte{0, 1, 0, 0, 1, 0, 1, 1, 0})
	f.Add(uint8(6), []byte{0, 1, 0, 1, 2, 0, 3, 4, 0, 4, 5, 1, 5, 3, 0, 2, 2, 0})
	f.Add(uint8(15), []byte{})
	f.Fuzz(func(t *testing.T, size uint8, data []byte) {
		nb := 2 + int(size%15)
		buses := make([]grid.Bus, nb)
		for i := range buses {
			buses[i] = grid.Bus{ID: 3*i + 1, Type: grid.PQ, Vm: 1}
		}
		buses[0].Type = grid.Slack
		var branches []grid.Branch
		var loops []int
		for k := 0; k+2 < len(data) && len(branches) < 64; k += 3 {
			from, to := int(data[k])%nb, int(data[k+1])%nb
			if from == to {
				loops = append(loops, len(branches))
				to = (from + 1) % nb // New refuses a self-loop; it is made below
			}
			branches = append(branches, grid.Branch{From: buses[from].ID, To: buses[to].ID, X: 0.1, Status: data[k+2]%4 != 3})
		}
		n, err := grid.New("fuzz", 100, buses, branches, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, bi := range loops {
			n.Branches[bi].To = n.Branches[bi].From
		}
		islandingVerdicts(t, n)
	})
}
