package core

import (
	"fmt"
	"slices"

	"repro/internal/partition"
)

// Mapping assigns subsystems to HPC clusters.
type Mapping struct {
	// Assign[si] is the cluster index hosting subsystem si.
	Assign []int
	// Imbalance is the load-imbalance ratio of the assignment.
	Imbalance float64
	// EdgeCut is the total inter-cluster communication weight.
	EdgeCut float64
}

// MapOptions configures the mapping method.
type MapOptions struct {
	// Cost is the Expression (2) iteration model; the zero value selects
	// the paper's empirical 14-bus coefficients.
	Cost partition.CostModel
	// Noise is the estimated noise level x = f(δt) for the current time
	// frame (Expression (1)).
	Noise float64
	// Seed drives the partitioner.
	Seed int64
	// ImbalanceTol is the METIS balance threshold (default 1.05).
	ImbalanceTol float64
}

func (o *MapOptions) defaults() {
	if o.Cost == (partition.CostModel{}) {
		o.Cost = partition.PaperCostModel()
	}
	if o.Noise <= 0 {
		o.Noise = 1
	}
}

// MapStep1 computes the cluster assignment before DSE Step 1: vertex
// weights follow Expression (4) (Wv = Nb·Ni(x)); edge weights are uniform
// because Step 1 needs no communication — the objective is pure
// computational load balance (the paper's Figure 4). The result is
// remembered (see memoMapping); the caller owns the Mapping it gets.
func (d *Decomposition) MapStep1(clusters int, opts MapOptions) (*Mapping, error) {
	opts.defaults()
	return d.memoMapping(0, clusters, opts, nil, func() (*Mapping, error) {
		g := d.weightedGraph(opts, false)
		// The decomposition graph is tiny (one vertex per subsystem), so run a
		// handful of seeded partitioner attempts and keep the best-balanced
		// one — Step 1's only objective is computational load balance.
		var best *Mapping
		for trial := int64(0); trial < 8; trial++ {
			res, err := partition.KWay(g, clusters, partition.Options{
				Seed: opts.Seed + trial, ImbalanceTol: opts.ImbalanceTol,
			})
			if err != nil {
				return nil, fmt.Errorf("core: mapping for step 1: %w", err)
			}
			cand := &Mapping{Assign: res.Parts, Imbalance: res.Imbalance, EdgeCut: res.EdgeCut}
			if best == nil || cand.Imbalance < best.Imbalance ||
				(cand.Imbalance == best.Imbalance && cand.EdgeCut < best.EdgeCut) {
				best = cand
			}
		}
		return best, nil
	})
}

// MapStep2 recomputes the assignment before DSE Step 2, starting from the
// Step-1 assignment: vertex weights stay at Expression (4); edge weights
// switch to Expression (5) (We = gs(s1)+gs(s2), the pseudo-measurement
// exchange volume), and the objective becomes minimizing inter-cluster
// communication while keeping balance (the paper's Figure 5). Remembered
// like MapStep1's, per starting assignment.
func (d *Decomposition) MapStep2(clusters int, prev *Mapping, opts MapOptions) (*Mapping, error) {
	opts.defaults()
	if prev == nil || len(prev.Assign) != len(d.Subsystems) {
		return nil, fmt.Errorf("core: step-2 mapping needs the step-1 assignment")
	}
	return d.memoMapping(1, clusters, opts, prev.Assign, func() (*Mapping, error) {
		g := d.weightedGraph(opts, true)
		res, err := partition.Repartition(g, clusters, prev.Assign, partition.Options{
			Seed: opts.Seed, ImbalanceTol: opts.ImbalanceTol,
		})
		if err != nil {
			return nil, fmt.Errorf("core: remapping for step 2: %w", err)
		}
		return &Mapping{Assign: res.Parts, Imbalance: res.Imbalance, EdgeCut: res.EdgeCut}, nil
	})
}

// mapMemo is the mapping one of MapStep1 / MapStep2 computed last, with
// everything it depends on beyond the decomposition itself.
type mapMemo struct {
	clusters int
	opts     MapOptions // defaulted
	prev     []int      // MapStep2's starting assignment, nil for MapStep1
	m        Mapping
}

// memoMapping returns a copy of the mapping remembered for step (0 for
// MapStep1, 1 for MapStep2) when it was computed from the same inputs, and
// computes and remembers it otherwise. A distributed run asks for the same
// two mappings every frame, and a mapping depends on nothing a frame changes:
// Subsystems and TieLines are fixed once the decomposition is built. One
// entry per step bounds the memory when a caller varies Noise frame by frame.
// The lock is held while computing, so concurrent runs on one decomposition
// compute once.
func (d *Decomposition) memoMapping(step, clusters int, opts MapOptions, prev []int, compute func() (*Mapping, error)) (*Mapping, error) {
	d.mapMu.Lock()
	defer d.mapMu.Unlock()
	c := d.mapped[step]
	if c == nil || c.clusters != clusters || c.opts != opts || !slices.Equal(c.prev, prev) {
		m, err := compute()
		if err != nil {
			return nil, err
		}
		c = &mapMemo{clusters: clusters, opts: opts, prev: slices.Clone(prev), m: *m}
		d.mapped[step] = c
	}
	m := c.m
	m.Assign = slices.Clone(m.Assign)
	return &m, nil
}

// weightedGraph builds the decomposition graph with DSE cost-model weights.
// When step2 is true, edges carry Expression (5) weights; otherwise they
// are uniform.
func (d *Decomposition) weightedGraph(opts MapOptions, step2 bool) *partition.Graph {
	g := partition.NewGraph(len(d.Subsystems))
	for i, s := range d.Subsystems {
		g.SetVertexWeight(i, opts.Cost.VertexWeight(len(s.Buses), opts.Noise))
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
		w := 1.0
		if step2 {
			w = partition.EdgeWeight(d.Subsystems[a].GS(), d.Subsystems[b].GS())
		}
		g.AddEdge(a, b, w)
	}
	return g
}

// Migrations lists the subsystems whose cluster changed between two
// mappings — the data redistribution the architecture performs between
// Step 1 and Step 2.
func Migrations(before, after *Mapping) []int {
	var out []int
	for i := range before.Assign {
		if before.Assign[i] != after.Assign[i] {
			out = append(out, i)
		}
	}
	return out
}
