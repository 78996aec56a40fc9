package gridse_test

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/wls"
)

// goldenHashes pins the bits of every estimator path: each value is the
// FNV-64a hash of the float64 bits, in order, of the entry's solved states,
// and of every local solve's x, residuals and J. A change that moves them
// updates the table and says in CHANGES.md why, with its distance to the old
// estimate. The values hold on amd64; other architectures may fuse
// multiply-adds differently, so there the entries are only compared across
// GOMAXPROCS.
//
// Inputs: "ieee118/9" is IEEE-118 decomposed into 9 subsystems (seed 1),
// "synthwecc4" and "synthwecc12" the 4- and 12-area synthetic WECC (seed 1)
// with one subsystem per area. All meter the full plan plus the PMUs DSE needs at the reference
// buses (σ 5e-4), simulated at noise 1 from the flat-start power flow; frame
// k draws noise seed k.
var goldenHashes = []struct {
	name, inputs string
	want         uint64
}{
	{"central/ieee118", "CentralizedEstimate, frame 1, default wls.Options", 0x69f11c1eae7ac5cd},
	{"dse/ieee118-9", "RunDSE, Rounds 2, frame 1", 0xb0e296b5cf461028},
	{"dse/synthwecc4", "RunDSE, Rounds 2, frame 1", 0x47136d3047e1701e},
	{"track/ieee118-9", "Tracker, frames 1-10", 0x37adc9437c1c6d80},
	{"track/synthwecc12", "Tracker, Rounds 2, frames 1-5", 0x55b570d69d22b0b7},
	{"distributed/ieee118-9", "RunDistributed, 3 loopback clusters, frame 1", 0x2e7c63dd5f39d8d8},
	{"hierarchical/ieee118-9", "RunHierarchical, 3 loopback clusters, frames 1-3 on one decomposition", 0xa1436c57b3989fdb},
	{"hierarchical-refine/ieee118-9", "as hierarchical, with HierarchicalRefine", 0xcde891cc9d4cb589},
}

// TestGoldenHashes runs every entry of goldenHashes at GOMAXPROCS 1, 2 and
// 4 and checks that each run hashes alike and, on amd64, to the pinned
// value.
func TestGoldenHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("golden hashes run the full estimator paths")
	}
	ieee := goldenCase(t, grid.Case118(), 9, nil, 10)
	var wecc, wecc12 *goldenInputs
	if !raceEnabled {
		wecc, wecc12 = goldenWECC(t, 4, 1), goldenWECC(t, 12, 5)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, g := range goldenHashes {
		t.Run(g.name, func(t *testing.T) {
			if (g.name == "dse/synthwecc4" || g.name == "track/synthwecc12") && wecc == nil {
				t.Skip("the synthetic WECC solves too slowly under the race detector")
			}
			var first uint64
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				got := goldenRun(t, g.name, ieee, wecc, wecc12)
				switch {
				case procs == 1:
					first = got
				case got != first:
					t.Errorf("GOMAXPROCS %d hashes %016x, GOMAXPROCS 1 %016x", procs, got, first)
				}
				if runtime.GOARCH == "amd64" && got != g.want {
					t.Errorf("GOMAXPROCS %d: %s (%s) hashes %#016x, want %#016x", procs, g.name, g.inputs, got, g.want)
				}
			}
		})
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// goldenInputs is one network, decomposed and metered.
type goldenInputs struct {
	net    *grid.Network
	parts  []int
	m      int
	frames [][]meas.Measurement
}

// goldenCase meters n for a decomposition into m subsystems (parts nil:
// core.Decompose at seed 1) and draws frames noise seeds 1, 2, ….
func goldenCase(t *testing.T, n *grid.Network, m int, parts []int, frames int) *goldenInputs {
	t.Helper()
	pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true, MaxIter: 40})
	if err != nil {
		t.Fatal(err)
	}
	in := &goldenInputs{net: n, parts: parts, m: m}
	dec := in.decompose(t)
	plan := meas.FullPlan().Build(n)
	plan = append(plan, core.PMUPlanFor(dec, plan, 0.0005)...)
	for k := 1; k <= frames; k++ {
		f, err := meas.Simulate(n, plan, pf.State, 1, int64(k))
		if err != nil {
			t.Fatal(err)
		}
		in.frames = append(in.frames, f)
	}
	return in
}

// goldenWECC meters the synthetic WECC of the given areas (seed 1) for one
// subsystem per area and draws frames noise seeds.
func goldenWECC(t *testing.T, areas, frames int) *goldenInputs {
	t.Helper()
	n, err := grid.SynthWECC(grid.SynthOptions{Areas: areas, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return goldenCase(t, n, areas, grid.AreaParts(n), frames)
}

// decompose returns a fresh decomposition of the inputs' network, with
// nothing cached on it.
func (in *goldenInputs) decompose(t *testing.T) *core.Decomposition {
	t.Helper()
	var dec *core.Decomposition
	var err error
	if in.parts == nil {
		dec, err = core.Decompose(in.net, in.m, core.DecomposeOptions{Seed: 1})
	} else {
		dec, err = core.DecomposeWithParts(in.net, in.m, in.parts, 1)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dec.Close() })
	return dec
}

// goldenRun runs entry name on a fresh decomposition and hashes it.
func goldenRun(t *testing.T, name string, ieee, wecc, wecc12 *goldenInputs) uint64 {
	t.Helper()
	ctx := context.Background()
	h := fnv.New64a()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	switch name {
	case "central/ieee118":
		r, err := core.CentralizedEstimate(ctx, ieee.net, ieee.frames[0], wls.Options{})
		check(err)
		hashResults(h, r)
	case "dse/ieee118-9", "dse/synthwecc4":
		in := ieee
		if name == "dse/synthwecc4" {
			in = wecc
		}
		r, err := core.RunDSE(ctx, in.decompose(t), in.frames[0], core.DSEOptions{Rounds: 2})
		check(err)
		hashState(h, r.State)
		hashResults(h, r.Step1...)
		hashResults(h, r.Step2...)
	case "track/ieee118-9":
		trk := core.NewTracker(ieee.decompose(t), core.DSEOptions{})
		for _, f := range ieee.frames {
			r, err := trk.Process(f)
			check(err)
			hashState(h, r.State)
			hashResults(h, r.Step1...)
			hashResults(h, r.Step2...)
		}
	case "track/synthwecc12":
		trk := core.NewTracker(wecc12.decompose(t), core.DSEOptions{Rounds: 2})
		for _, f := range wecc12.frames {
			r, err := trk.Process(f)
			check(err)
			hashState(h, r.State)
			hashResults(h, r.Step1...)
			hashResults(h, r.Step2...)
		}
	case "distributed/ieee118-9":
		r, err := core.RunDistributed(ctx, ieee.decompose(t), ieee.frames[0], core.DistributedOptions{Clusters: 3})
		check(err)
		hashState(h, r.State)
		hashResults(h, r.Step1...)
		hashResults(h, r.Step2...)
	case "hierarchical/ieee118-9", "hierarchical-refine/ieee118-9":
		dec := ieee.decompose(t)
		opts := core.DistributedOptions{Clusters: 3, HierarchicalRefine: name == "hierarchical-refine/ieee118-9"}
		for _, f := range ieee.frames[:3] {
			r, err := core.RunHierarchical(ctx, dec, f, opts)
			check(err)
			hashState(h, r.State)
			hashResults(h, r.Local...)
		}
	default:
		t.Fatalf("no run for golden entry %q", name)
	}
	return h.Sum64()
}

func hashState(h hash.Hash64, st powerflow.State) {
	hashFloats(h, st.Vm...)
	hashFloats(h, st.Va...)
}

func hashResults(h hash.Hash64, rs ...*wls.Result) {
	for _, r := range rs {
		hashFloats(h, r.X...)
		hashFloats(h, r.Residuals...)
		hashFloats(h, r.ObjectiveJ)
	}
}

func hashFloats(h hash.Hash64, xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}
