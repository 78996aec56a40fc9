package main

import (
	"fmt"
	"sort"

	"repro/internal/grid"
)

// The topology processor converts a substation-level node-breaker model —
// electrical nodes joined by switching devices — into the bus-branch model
// the estimator works on. It is the EMS step that runs upstream of state
// estimation: every breaker operation re-consolidates nodes into buses and
// can split or merge buses, which is exactly the kind of network-topology
// dynamics the paper's testbed (after Bose et al.) exercises against
// hierarchical and distributed estimators.

// Switch is one switching device between two nodes.
type Switch struct {
	Name   string
	A, B   int // node IDs
	Closed bool
}

// Node is one electrical node of the node-breaker model. Its Bus fields
// (loads, shunts, voltage) are merged into the consolidated bus.
type Node struct {
	ID  int
	Bus grid.Bus // ID field ignored; Type/Pd/Qd/Gs/Bs/Vm/Va/BaseKV/Area merged
}

// NodeModel is a complete node-breaker network description.
type NodeModel struct {
	Name     string
	BaseMVA  float64
	Nodes    []Node
	Switches []Switch
	Branches []grid.Branch // From/To reference node IDs
	Gens     []grid.Gen    // Bus references a node ID
}

// Consolidation is the result of topology processing.
type Consolidation struct {
	Network *grid.Network
	// NodeBus maps each node ID to its consolidated bus number.
	NodeBus map[int]int
	// DroppedBranches lists branches whose endpoints consolidated into the
	// same bus (closed-loop branches inside a substation).
	DroppedBranches []int
}

// Consolidate runs the topology processor: nodes connected through closed
// switches merge into one bus (numbered by the smallest member node ID);
// loads and shunts are summed, the strongest bus type wins
// (Slack > PV > PQ), and branches are re-terminated on the merged buses.
func (m *NodeModel) Consolidate() (*Consolidation, error) {
	if len(m.Nodes) == 0 {
		return nil, fmt.Errorf("topology: empty node model")
	}
	idx := make(map[int]int, len(m.Nodes)) // node ID -> position
	for i, nd := range m.Nodes {
		if _, dup := idx[nd.ID]; dup {
			return nil, fmt.Errorf("topology: duplicate node %d", nd.ID)
		}
		idx[nd.ID] = i
	}
	// Union-find over closed switches.
	parent := make([]int, len(m.Nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, sw := range m.Switches {
		if !sw.Closed {
			continue
		}
		ia, ok := idx[sw.A]
		if !ok {
			return nil, fmt.Errorf("topology: switch %q references unknown node %d", sw.Name, sw.A)
		}
		ib, ok := idx[sw.B]
		if !ok {
			return nil, fmt.Errorf("topology: switch %q references unknown node %d", sw.Name, sw.B)
		}
		union(ia, ib)
	}

	// Groups: root position -> member positions.
	groups := make(map[int][]int)
	for i := range m.Nodes {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	// Bus number for each group = smallest member node ID.
	nodeBus := make(map[int]int, len(m.Nodes))
	type busAgg struct {
		bus     grid.Bus
		members []int
	}
	var aggs []busAgg
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	for _, r := range roots {
		members := groups[r]
		busID := m.Nodes[members[0]].ID
		for _, p := range members {
			if m.Nodes[p].ID < busID {
				busID = m.Nodes[p].ID
			}
		}
		agg := grid.Bus{ID: busID, Type: grid.PQ, Vm: 1}
		for _, p := range members {
			nd := m.Nodes[p]
			nodeBus[nd.ID] = busID
			agg.Pd += nd.Bus.Pd
			agg.Qd += nd.Bus.Qd
			agg.Gs += nd.Bus.Gs
			agg.Bs += nd.Bus.Bs
			if nd.Bus.Type > agg.Type { // Slack > PV > PQ by constant order
				agg.Type = nd.Bus.Type
				agg.Vm = nd.Bus.Vm
			}
			if nd.Bus.BaseKV > 0 {
				agg.BaseKV = nd.Bus.BaseKV
			}
			if nd.Bus.Area != 0 {
				agg.Area = nd.Bus.Area
			}
		}
		aggs = append(aggs, busAgg{bus: agg, members: members})
	}

	buses := make([]grid.Bus, len(aggs))
	for i, a := range aggs {
		buses[i] = a.bus
	}
	con := &Consolidation{NodeBus: nodeBus}
	var branches []grid.Branch
	for bi, br := range m.Branches {
		fb, ok := nodeBus[br.From]
		if !ok {
			return nil, fmt.Errorf("topology: branch %d references unknown node %d", bi, br.From)
		}
		tb, ok := nodeBus[br.To]
		if !ok {
			return nil, fmt.Errorf("topology: branch %d references unknown node %d", bi, br.To)
		}
		if fb == tb {
			con.DroppedBranches = append(con.DroppedBranches, bi)
			continue
		}
		nb := br
		nb.From, nb.To = fb, tb
		branches = append(branches, nb)
	}
	var gens []grid.Gen
	for gi, g := range m.Gens {
		b, ok := nodeBus[g.Bus]
		if !ok {
			return nil, fmt.Errorf("topology: generator %d references unknown node %d", gi, g.Bus)
		}
		ng := g
		ng.Bus = b
		gens = append(gens, ng)
	}
	net, err := grid.New(m.Name, m.BaseMVA, buses, branches, gens)
	if err != nil {
		return nil, fmt.Errorf("topology: consolidated model invalid: %w", err)
	}
	con.Network = net
	return con, nil
}

// SetSwitch opens or closes the named switch, returning an error when the
// switch does not exist. Re-run Consolidate afterwards to get the updated
// bus-branch model.
func (m *NodeModel) SetSwitch(name string, closed bool) error {
	for i := range m.Switches {
		if m.Switches[i].Name == name {
			m.Switches[i].Closed = closed
			return nil
		}
	}
	return fmt.Errorf("topology: unknown switch %q", name)
}
