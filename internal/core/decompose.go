// Package core implements the paper's contribution: the distributed
// state-estimation (DSE) system architecture. It decomposes a power system
// into subsystems (with the preliminary-step sensitivity analysis that
// marks boundary and sensitive internal buses), runs DSE Step 1 (local WLS
// estimation per subsystem) and DSE Step 2 (re-evaluation with
// pseudo-measurements exchanged between neighboring estimators), maps
// subsystems onto HPC clusters with the METIS-style partitioner and the
// Expression (1)–(5) cost model, and orchestrates the whole flow over the
// MeDICi-style middleware — in both peer-to-peer (distributed) and
// hierarchical (coordinator) arrangements.
package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/grid"
	"repro/internal/partition"
)

// Subsystem is one non-overlapping piece of the power-system decomposition,
// the estimation domain of one distributed state estimator (one balancing
// authority in the paper's architecture).
type Subsystem struct {
	Index int
	// Buses holds internal (grid.Network) bus indices, sorted.
	Buses []int
	// Boundary lists the subsystem's boundary buses: endpoints of tie
	// lines. Subset of Buses, sorted.
	Boundary []int
	// Sensitive lists the sensitive internal buses found by the
	// preliminary-step sensitivity analysis. Disjoint from Boundary,
	// subset of Buses, sorted.
	Sensitive []int
	// InternalBranches indexes Network.Branches fully inside the subsystem.
	InternalBranches []int
	// RefBus is the internal index of the subsystem's angle-reference bus
	// (the global slack when present, else the lowest-numbered bus).
	RefBus int
}

// GS returns gs(s): the count of boundary plus sensitive internal buses —
// the quantity Expression (5) sums over two neighboring subsystems.
func (s *Subsystem) GS() int { return len(s.Boundary) + len(s.Sensitive) }

// TieLine is a branch connecting two subsystems.
type TieLine struct {
	Branch int // index into Network.Branches
	SubA   int // subsystem of the From bus
	SubB   int // subsystem of the To bus
}

// Decomposition is a complete power-system decomposition: the preliminary
// (off-line) step of the DSE algorithm.
type Decomposition struct {
	Net        *grid.Network
	Subsystems []Subsystem
	TieLines   []TieLine
	// Owner maps each internal bus index to its subsystem index.
	Owner []int

	// neighbors[si] is what Neighbors(si) returns, fixed by TieLines and
	// built with them.
	neighbors [][]int

	// mapped holds the latest MapStep1 and MapStep2 results (see
	// memoMapping); mapMu guards it.
	mapMu  sync.Mutex
	mapped [2]*mapMemo

	// session is the lazily created decomposition-owned DSE session (see
	// Session); sessionMu guards the slot, not the session's contents.
	sessionMu sync.Mutex
	session   *Session

	// testbed is the testbed kept between distributed runs (see
	// testbedFor); testbedMu guards the slot, the testbed's own mu the run
	// using it.
	testbedMu sync.Mutex
	testbed   *keptTestbed
}

// DecomposeOptions tunes the preliminary step.
type DecomposeOptions struct {
	// Seed drives the partitioner.
	Seed int64
	// SensitivityRadius marks internal buses within this many hops of a
	// boundary bus as "sensitive internal". Zero selects 1, the electrical
	// neighborhood most affected by boundary-state changes (a graph proxy
	// for the paper's sensitivity analysis; see DESIGN.md).
	SensitivityRadius int
}

// Decompose splits the network into m non-overlapping subsystems by
// partitioning the bus connectivity graph, then performs the sensitivity
// analysis that identifies boundary and sensitive internal buses.
func Decompose(n *grid.Network, m int, opts DecomposeOptions) (*Decomposition, error) {
	if m <= 0 || m > n.N() {
		return nil, fmt.Errorf("core: cannot decompose %d buses into %d subsystems", n.N(), m)
	}
	radius := opts.SensitivityRadius
	if radius <= 0 {
		radius = 1
	}
	// Bus-level graph: unit vertex weights, edge weight = number of
	// parallel circuits (keeps parallel lines together).
	g := partition.NewGraph(n.N())
	for _, br := range n.InService() {
		g.AddEdge(n.MustIndex(br.From), n.MustIndex(br.To), 1)
	}
	res, err := partition.KWay(g, m, partition.Options{Seed: opts.Seed})
	if err != nil {
		return nil, fmt.Errorf("core: decomposing bus graph: %w", err)
	}
	parts := res.Parts
	repairConnectivity(n, parts, m)
	return decompositionFromParts(n, m, parts, radius)
}

// DecomposeWithParts builds a decomposition from a caller-provided
// bus-to-subsystem assignment (used by tests and by area-based scenarios
// where the split follows existing balancing-authority borders). The
// assignment is connectivity-repaired: buses stranded from their
// subsystem's main component migrate to the best-connected neighbor
// subsystem, so that every subsystem induces a connected subgraph — a
// requirement for local Step-1 observability.
func DecomposeWithParts(n *grid.Network, m int, parts []int, radius int) (*Decomposition, error) {
	if len(parts) != n.N() {
		return nil, fmt.Errorf("core: parts length %d != buses %d", len(parts), n.N())
	}
	if radius <= 0 {
		radius = 1
	}
	repaired := append([]int(nil), parts...)
	repairConnectivity(n, repaired, m)
	return decompositionFromParts(n, m, repaired, radius)
}

// repairConnectivity reassigns buses so every subsystem's induced subgraph
// is connected: each part keeps its largest component; smaller components
// migrate to the neighboring part they share the most branches with.
func repairConnectivity(n *grid.Network, parts []int, m int) {
	adj := n.Adjacency()
	for pass := 0; pass < n.N(); pass++ { // bounded; converges much sooner
		changed := false
		for p := 0; p < m; p++ {
			comps := inducedComponents(adj, parts, p)
			if len(comps) <= 1 {
				continue
			}
			// Keep the largest component; migrate the rest.
			largest := 0
			for i, c := range comps {
				if len(c) > len(comps[largest]) {
					largest = i
				}
			}
			for i, comp := range comps {
				if i == largest {
					continue
				}
				votes := make([]int, m)
				for _, u := range comp {
					for _, v := range adj[u] {
						if parts[v] != p {
							votes[parts[v]]++
						}
					}
				}
				best, bestVotes := -1, 0
				for q := 0; q < m; q++ { // deterministic tie-break: lowest id
					if votes[q] > bestVotes {
						best, bestVotes = q, votes[q]
					}
				}
				if best < 0 {
					continue // isolated island; leave as is
				}
				for _, u := range comp {
					parts[u] = best
				}
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// inducedComponents returns the connected components of part p's induced
// subgraph.
func inducedComponents(adj [][]int, parts []int, p int) [][]int {
	visited := make(map[int]bool)
	var comps [][]int
	for s := range parts {
		if parts[s] != p || visited[s] {
			continue
		}
		var comp []int
		queue := []int{s}
		visited[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, v := range adj[u] {
				if parts[v] == p && !visited[v] {
					visited[v] = true
					queue = append(queue, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

func decompositionFromParts(n *grid.Network, m int, parts []int, radius int) (*Decomposition, error) {
	d := &Decomposition{
		Net:        n,
		Subsystems: make([]Subsystem, m),
		Owner:      append([]int(nil), parts...),
	}
	for i := range d.Subsystems {
		d.Subsystems[i].Index = i
	}
	for bus, p := range parts {
		if p < 0 || p >= m {
			return nil, fmt.Errorf("core: bus %d assigned to invalid subsystem %d", bus, p)
		}
		d.Subsystems[p].Buses = append(d.Subsystems[p].Buses, bus)
	}
	for i := range d.Subsystems {
		if len(d.Subsystems[i].Buses) == 0 {
			return nil, fmt.Errorf("core: subsystem %d is empty", i)
		}
		sort.Ints(d.Subsystems[i].Buses)
	}

	boundary := make(map[int]bool)
	for bi, br := range n.Branches {
		if !br.Status {
			continue
		}
		f, t := n.MustIndex(br.From), n.MustIndex(br.To)
		pf, pt := parts[f], parts[t]
		if pf == pt {
			d.Subsystems[pf].InternalBranches = append(d.Subsystems[pf].InternalBranches, bi)
			continue
		}
		d.TieLines = append(d.TieLines, TieLine{Branch: bi, SubA: pf, SubB: pt})
		boundary[f] = true
		boundary[t] = true
	}
	d.neighbors = make([][]int, m)
	for _, tl := range d.TieLines {
		d.neighbors[tl.SubA] = append(d.neighbors[tl.SubA], tl.SubB)
		d.neighbors[tl.SubB] = append(d.neighbors[tl.SubB], tl.SubA)
	}
	for si, nb := range d.neighbors {
		slices.Sort(nb)
		d.neighbors[si] = slices.Compact(nb)
	}

	// Sensitivity analysis: sensitive internal buses are the internal buses
	// within `radius` hops of a boundary bus inside their own subsystem.
	adj := n.Adjacency()
	for si := range d.Subsystems {
		s := &d.Subsystems[si]
		for _, b := range s.Buses {
			if boundary[b] {
				s.Boundary = append(s.Boundary, b)
			}
		}
		sens := make(map[int]bool)
		frontier := append([]int(nil), s.Boundary...)
		visited := make(map[int]bool)
		for _, b := range frontier {
			visited[b] = true
		}
		for hop := 0; hop < radius; hop++ {
			var next []int
			for _, u := range frontier {
				for _, v := range adj[u] {
					if parts[v] != si || visited[v] {
						continue
					}
					visited[v] = true
					if !boundary[v] {
						sens[v] = true
					}
					next = append(next, v)
				}
			}
			frontier = next
		}
		for b := range sens {
			s.Sensitive = append(s.Sensitive, b)
		}
		sort.Ints(s.Sensitive)

		// Reference bus: the global slack if owned, else the lowest bus.
		s.RefBus = s.Buses[0]
		slack := n.SlackIndex()
		if parts[slack] == si {
			s.RefBus = slack
		}
	}
	return d, nil
}

// PerturbBranch derives the what-if decomposition for a single-branch
// outage: the network is cloned with branch `out` switched out of service,
// and the clone is re-decomposed from this decomposition's bus-to-subsystem
// assignment (connectivity-repaired, since losing a branch can split a
// subsystem's induced subgraph even when the network as a whole stays
// connected). radius is the sensitivity radius (0 selects 1). The perturbed
// decomposition owns its own lazily built session, so a contingency pool
// holding one per outage amortizes skeleton builds across re-screens. The
// outage must not island the network — callers screen with an islanding
// check first.
func (d *Decomposition) PerturbBranch(out, radius int) (*Decomposition, error) {
	if out < 0 || out >= len(d.Net.Branches) {
		return nil, fmt.Errorf("core: perturb branch %d out of range [0,%d)", out, len(d.Net.Branches))
	}
	if !d.Net.Branches[out].Status {
		return nil, fmt.Errorf("core: perturb branch %d already out of service", out)
	}
	pnet := d.Net.Clone()
	pnet.Branches[out].Status = false
	if !pnet.Connected() {
		return nil, fmt.Errorf("core: outage of branch %d islands the network", out)
	}
	return DecomposeWithParts(pnet, len(d.Subsystems), d.Owner, radius)
}

// Neighbors returns the subsystem indices adjacent to subsystem si via tie
// lines, sorted and deduplicated. The slice is the decomposition's own,
// shared by every caller and every goroutine: do not modify it.
func (d *Decomposition) Neighbors(si int) []int { return d.neighbors[si] }

// TieLinesOf returns the tie lines incident to subsystem si.
func (d *Decomposition) TieLinesOf(si int) []TieLine {
	var out []TieLine
	for _, tl := range d.TieLines {
		if tl.SubA == si || tl.SubB == si {
			out = append(out, tl)
		}
	}
	return out
}

// Graph builds the decomposition graph of Figure 3: one vertex per
// subsystem weighted by bus count, one edge per neighboring pair weighted
// by Expression (5)'s upper bound (the paper's Table I initialization: the
// sum of the two subsystems' bus counts).
func (d *Decomposition) Graph() *partition.Graph {
	g := partition.NewGraph(len(d.Subsystems))
	for i, s := range d.Subsystems {
		g.SetVertexWeight(i, float64(len(s.Buses)))
	}
	seen := make(map[[2]int]bool)
	for _, tl := range d.TieLines {
		a, b := tl.SubA, tl.SubB
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		g.AddEdge(a, b, float64(len(d.Subsystems[a].Buses)+len(d.Subsystems[b].Buses)))
	}
	return g
}

// Diameter returns the diameter (in hops) of the decomposition graph; the
// DSE Step 1/2 iteration count is bounded by it [10].
func (d *Decomposition) Diameter() int {
	m := len(d.Subsystems)
	adj := make([][]int, m)
	for _, tl := range d.TieLines {
		adj[tl.SubA] = append(adj[tl.SubA], tl.SubB)
		adj[tl.SubB] = append(adj[tl.SubB], tl.SubA)
	}
	diam := 0
	for s := 0; s < m; s++ {
		dist := make([]int, m)
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for _, dd := range dist {
			if dd > diam {
				diam = dd
			}
		}
	}
	return diam
}
