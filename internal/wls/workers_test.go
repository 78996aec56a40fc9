package wls

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/grid"
)

// TestEstimateIndependentOfWorkerCount: a default-options estimate on
// IEEE-118 and the 4-area SynthWECC hashes x, the residuals and J to the
// same FNV value at GOMAXPROCS 1, 2 and 4. The pooled kernels it runs — the
// gain refresh and the factor — sum every entry in one order whatever the
// worker count, and the right-hand side comes off the serial fused pass, so
// the bits cannot depend on how many workers the pool has.
func TestEstimateIndependentOfWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name  string
		build func() *grid.Network
	}{{"ieee118", grid.Case118}, {"synth-wecc-4", synthWECC(t, 4)}} {
		mod := engineTestModel(t, c.build, 0.01, 5)
		var want uint64
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			got := resultHash(t, fmt.Sprintf("%s, GOMAXPROCS %d", c.name, procs), func() (*Result, error) { return Estimate(mod, Options{}) })
			if procs == 1 {
				want = got
			} else if got != want {
				t.Errorf("%s: GOMAXPROCS %d hashes %016x, GOMAXPROCS 1 %016x", c.name, procs, got, want)
			}
		}
	}
}

// TestEstimateFrameIndependentOfWorkerCount: a default-options EstimateFrame
// on IEEE-118 and the 4- and 12-area SynthWECC hashes x, the residuals and
// J to the same FNV value at GOMAXPROCS 1, 2 and 4, and to the value
// EstimateCtx gives on a model built from the same frame. At one worker the
// frame path writes the pattern on the caller; at two and more a goroutine
// writes it and, on the 12-area gain, analyzes it beside the model build —
// or the caller does both where it claims the pattern first.
func TestEstimateFrameIndependentOfWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name  string
		build func() *grid.Network
	}{{"ieee118", grid.Case118}, {"synth-wecc-4", synthWECC(t, 4)}, {"synth-wecc-12", synthWECC(t, 12)}} {
		mod := engineTestModel(t, c.build, 0.01, 5)
		want := resultHash(t, c.name+", EstimateCtx", func() (*Result, error) { return Estimate(mod, Options{}) })
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			what := fmt.Sprintf("%s, EstimateFrame at GOMAXPROCS %d", c.name, procs)
			got := resultHash(t, what, func() (*Result, error) {
				return EstimateFrame(context.Background(), mod.Net, mod.Meas, mod.RefBus(), mod.RefAngle(), Options{})
			})
			if got != want {
				t.Errorf("%s hashes %016x, EstimateCtx on its model %016x", what, got, want)
			}
		}
	}
}

// resultHash runs solve and hashes its x, residuals and J.
func resultHash(t *testing.T, what string, solve func() (*Result, error)) uint64 {
	t.Helper()
	res, err := solve()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	h := fnv.New64a()
	for _, v := range append(append(append([]float64(nil), res.X...), res.Residuals...), res.ObjectiveJ) {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	t.Logf("%s: %d Gauss–Newton iterations, hash %016x", what, res.Iterations, h.Sum64())
	return h.Sum64()
}

// synthWECC builds the SynthWECC of the given number of areas.
func synthWECC(t *testing.T, areas int) func() *grid.Network {
	return func() *grid.Network {
		n, err := grid.SynthWECC(grid.SynthOptions{Areas: areas, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
}
