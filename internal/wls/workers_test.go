package wls

import (
	"encoding/binary"
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
	wecc4 := func() *grid.Network {
		n, err := grid.SynthWECC(grid.SynthOptions{Areas: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name  string
		build func() *grid.Network
	}{{"ieee118", grid.Case118}, {"synth-wecc-4", wecc4}} {
		mod := engineTestModel(t, c.build, 0.01, 5)
		var want uint64
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			res, err := Estimate(mod, Options{})
			if err != nil {
				t.Fatalf("%s, GOMAXPROCS %d: %v", c.name, procs, err)
			}
			h := fnv.New64a()
			for _, v := range append(append(append([]float64(nil), res.X...), res.Residuals...), res.ObjectiveJ) {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
			}
			got := h.Sum64()
			t.Logf("%s, GOMAXPROCS %d: %d Gauss–Newton iterations, hash %016x", c.name, procs, res.Iterations, got)
			if procs == 1 {
				want = got
			} else if got != want {
				t.Errorf("%s: GOMAXPROCS %d hashes %016x, GOMAXPROCS 1 %016x", c.name, procs, got, want)
			}
		}
	}
}
