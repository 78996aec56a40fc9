// Package grid models the electric power network: buses, branches,
// generators, per-unit conversion, admittance-matrix construction and
// topology queries. It also embeds the IEEE 14-, 30- and 118-bus test
// systems used throughout the paper reproduction.
package grid

import (
	"fmt"
	"slices"
	"sort"
)

// BusType classifies a bus for power-flow purposes.
type BusType int

// Bus types. PQ buses have fixed injections, PV buses fixed voltage
// magnitude and active injection, the slack (reference) bus fixed
// magnitude and angle.
const (
	PQ BusType = iota + 1
	PV
	Slack
)

func (t BusType) String() string {
	switch t {
	case PQ:
		return "PQ"
	case PV:
		return "PV"
	case Slack:
		return "slack"
	default:
		return fmt.Sprintf("BusType(%d)", int(t))
	}
}

// Bus is one electrical node. Power values are in MW/MVAr on the system
// base; voltages in per-unit and radians.
type Bus struct {
	ID     int     // external (1-based, possibly sparse) bus number
	Type   BusType //
	Pd, Qd float64 // load demand, MW / MVAr
	Gs, Bs float64 // shunt conductance/susceptance, MW / MVAr at V=1 pu
	Vm     float64 // voltage magnitude, pu (initial or solved)
	Va     float64 // voltage angle, rad (initial or solved)
	BaseKV float64
	Area   int // area / subsystem tag (0 = unassigned)
}

// Branch is a transmission line or transformer between two buses.
// Impedances are per-unit on the system MVA base.
type Branch struct {
	From, To int     // external bus numbers
	R, X     float64 // series resistance / reactance, pu
	B        float64 // total line charging susceptance, pu
	Tap      float64 // off-nominal tap ratio at the From side; 0 means 1.0
	Shift    float64 // phase shift, rad
	Status   bool    // in service
}

// Gen is a generating unit (or synchronous condenser).
type Gen struct {
	Bus    int     // external bus number
	Pg, Qg float64 // scheduled output, MW / MVAr
	Vset   float64 // voltage setpoint, pu
	Status bool
}

// Network is a complete power-system model.
type Network struct {
	Name     string
	BaseMVA  float64
	Buses    []Bus
	Branches []Branch
	Gens     []Gen

	idx map[int]int // external bus number -> internal index
	// dense is idx as an array from bus number base, −1 where no bus has the
	// number, kept where the numbers span at most denseSpan per bus, as case
	// files and the synthetic grids number them: an index lookup is then a
	// load, where the map's is a hash probe.
	dense []int32
	base  int
}

// denseSpan is how many bus numbers per bus the dense index may span.
const denseSpan = 16

// New assembles a Network, building the external-to-internal bus index.
// It returns an error for duplicate bus numbers or branches/generators
// referencing unknown buses.
func New(name string, baseMVA float64, buses []Bus, branches []Branch, gens []Gen) (*Network, error) {
	if baseMVA <= 0 {
		return nil, fmt.Errorf("grid: base MVA must be positive, got %g", baseMVA)
	}
	n := &Network{Name: name, BaseMVA: baseMVA, Buses: buses, Branches: branches, Gens: gens}
	n.idx = make(map[int]int, len(buses))
	for i, b := range buses {
		if _, dup := n.idx[b.ID]; dup {
			return nil, fmt.Errorf("grid: duplicate bus number %d", b.ID)
		}
		n.idx[b.ID] = i
	}
	if len(buses) > 0 {
		lo, hi := buses[0].ID, buses[0].ID
		for _, b := range buses {
			lo, hi = min(lo, b.ID), max(hi, b.ID)
		}
		if span := uint(hi) - uint(lo); span < uint(denseSpan*len(buses)) {
			n.dense, n.base = make([]int32, span+1), lo
			for i := range n.dense {
				n.dense[i] = -1
			}
			for i, b := range buses {
				n.dense[b.ID-lo] = int32(i)
			}
		}
	}
	for _, br := range branches {
		if _, ok := n.idx[br.From]; !ok {
			return nil, fmt.Errorf("grid: branch references unknown bus %d", br.From)
		}
		if _, ok := n.idx[br.To]; !ok {
			return nil, fmt.Errorf("grid: branch references unknown bus %d", br.To)
		}
		if br.From == br.To {
			return nil, fmt.Errorf("grid: branch %d-%d is a self loop", br.From, br.To)
		}
	}
	for _, g := range gens {
		if _, ok := n.idx[g.Bus]; !ok {
			return nil, fmt.Errorf("grid: generator references unknown bus %d", g.Bus)
		}
	}
	slacks := 0
	for _, b := range buses {
		if b.Type == Slack {
			slacks++
		}
	}
	if slacks != 1 {
		return nil, fmt.Errorf("grid: network %q has %d slack buses, want exactly 1", name, slacks)
	}
	return n, nil
}

// N returns the number of buses.
func (n *Network) N() int { return len(n.Buses) }

// Index returns the internal index of external bus number id and whether it
// exists.
func (n *Network) Index(id int) (int, bool) {
	if n.dense != nil {
		if k := uint(id) - uint(n.base); k < uint(len(n.dense)) && n.dense[k] >= 0 {
			return int(n.dense[k]), true
		}
		return 0, false
	}
	i, ok := n.idx[id]
	return i, ok
}

// MustIndex is Index that panics on unknown buses; for use with validated
// inputs.
func (n *Network) MustIndex(id int) int {
	i, ok := n.Index(id)
	if !ok {
		panic(fmt.Sprintf("grid: unknown bus %d", id))
	}
	return i
}

// SlackIndex returns the internal index of the slack bus.
func (n *Network) SlackIndex() int {
	for i, b := range n.Buses {
		if b.Type == Slack {
			return i
		}
	}
	panic("grid: no slack bus (network not built via New?)")
}

// InService returns the branches with Status == true.
func (n *Network) InService() []Branch {
	out := make([]Branch, 0, len(n.Branches))
	for _, br := range n.Branches {
		if br.Status {
			out = append(out, br)
		}
	}
	return out
}

// Adjacency returns, for each internal bus index, the sorted list of
// internal neighbor indices over in-service branches (no duplicates). The
// rows share one backing array, each clipped to its own length.
func (n *Network) Adjacency() [][]int {
	start := make([]int, n.N()+1)
	for _, br := range n.Branches {
		if br.Status {
			start[n.MustIndex(br.From)+1]++
			start[n.MustIndex(br.To)+1]++
		}
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	nbrs := make([]int, start[n.N()])
	adj := make([][]int, n.N())
	for i := range adj {
		adj[i] = nbrs[start[i]:start[i]:start[i+1]]
	}
	for _, br := range n.Branches {
		if br.Status {
			f, t := n.MustIndex(br.From), n.MustIndex(br.To)
			adj[f] = append(adj[f], t)
			adj[t] = append(adj[t], f)
		}
	}
	for i, row := range adj {
		slices.Sort(row)
		adj[i] = slices.Clip(slices.Compact(row))
	}
	return adj
}

// Connected reports whether all buses are reachable from the slack bus over
// in-service branches.
func (n *Network) Connected() bool {
	return len(n.Islands()) == 1
}

// Islands returns the connected components of the network as slices of
// internal bus indices, largest first.
func (n *Network) Islands() [][]int {
	adj := n.Adjacency()
	visited := make([]bool, n.N())
	var comps [][]int
	for s := 0; s < n.N(); s++ {
		if visited[s] {
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
				if !visited[v] {
					visited[v] = true
					queue = append(queue, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}

// TotalLoad returns the total system demand in MW and MVAr.
func (n *Network) TotalLoad() (p, q float64) {
	for _, b := range n.Buses {
		p += b.Pd
		q += b.Qd
	}
	return p, q
}

// TotalGen returns the total scheduled generation in MW.
func (n *Network) TotalGen() (p float64) {
	for _, g := range n.Gens {
		if g.Status {
			p += g.Pg
		}
	}
	return p
}

// GenAt returns the indices into Gens of in-service units at internal bus i.
func (n *Network) GenAt(i int) []int {
	var out []int
	for gi, g := range n.Gens {
		if g.Status && n.MustIndex(g.Bus) == i {
			out = append(out, gi)
		}
	}
	return out
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	cp, err := New(n.Name, n.BaseMVA,
		append([]Bus(nil), n.Buses...),
		append([]Branch(nil), n.Branches...),
		append([]Gen(nil), n.Gens...))
	if err != nil {
		panic("grid: Clone of valid network failed: " + err.Error())
	}
	return cp
}

// NetInjections returns the scheduled net complex power injection at every
// bus in per-unit: (generation − load) / baseMVA.
func (n *Network) NetInjections() (p, q []float64) {
	p = make([]float64, n.N())
	q = make([]float64, n.N())
	for i, b := range n.Buses {
		p[i] = -b.Pd / n.BaseMVA
		q[i] = -b.Qd / n.BaseMVA
	}
	for _, g := range n.Gens {
		if !g.Status {
			continue
		}
		i := n.MustIndex(g.Bus)
		p[i] += g.Pg / n.BaseMVA
		q[i] += g.Qg / n.BaseMVA
	}
	return p, q
}
