package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/partition"
)

// freshMappings computes both mappings on a decomposition nobody has mapped
// yet: the values a remembered mapping must equal.
func freshMappings(t *testing.T, opts MapOptions, prev []int) (m1, m2 *Mapping) {
	t.Helper()
	dec, err := Decompose(grid.Case118(), 9, DecomposeOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m1, err = dec.MapStep1(3, opts); err != nil {
		t.Fatal(err)
	}
	from := m1
	if prev != nil {
		from = &Mapping{Assign: prev}
	}
	if m2, err = dec.MapStep2(3, from, opts); err != nil {
		t.Fatal(err)
	}
	return m1, m2
}

// TestMappingIsRemembered: MapStep1 and MapStep2 run the partitioner once per
// distinct input — clusters, defaulted options, and for Step 2 the starting
// assignment — and hand every caller its own copy.
func TestMappingIsRemembered(t *testing.T) {
	dec, err := Decompose(grid.Case118(), 9, DecomposeOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := MapOptions{Seed: 1}
	want1, want2 := freshMappings(t, opts, nil)

	step1 := func(o MapOptions) *Mapping {
		t.Helper()
		m, err := dec.MapStep1(3, o)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	step2 := func(prev *Mapping, o MapOptions) *Mapping {
		t.Helper()
		m, err := dec.MapStep2(3, prev, o)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// A remembered mapping costs its copy: the Mapping and its Assign.
	const copyAllocs = 2
	computed := testing.AllocsPerRun(1, func() { freshMappings(t, opts, nil) })
	if computed < 10*copyAllocs {
		t.Fatalf("computing both mappings allocates %v times: too few to tell a computation from a copy", computed)
	}

	m1 := step1(opts)
	if !reflect.DeepEqual(m1, want1) {
		t.Fatalf("first MapStep1 %+v, fresh decomposition %+v", m1, want1)
	}
	if a := testing.AllocsPerRun(5, func() { step1(opts) }); a > copyAllocs {
		t.Errorf("repeated MapStep1 allocates %v times, want the copy's %d: the partitioner ran again", a, copyAllocs)
	}
	// The zero Noise and Cost are the defaults spelled out: the same key.
	spelled := MapOptions{Seed: 1, Noise: 1, Cost: defaultCost()}
	if a := testing.AllocsPerRun(5, func() { step1(spelled) }); a > copyAllocs {
		t.Errorf("MapStep1 with the defaults spelled out allocates %v times: it missed the remembered mapping", a)
	}
	m1.Assign[0] = 99
	if again := step1(opts); !reflect.DeepEqual(again, want1) {
		t.Fatalf("MapStep1 after a caller overwrote its copy: %+v, want %+v", again, want1)
	}

	m2 := step2(want1, opts)
	if !reflect.DeepEqual(m2, want2) {
		t.Fatalf("first MapStep2 %+v, fresh decomposition %+v", m2, want2)
	}
	if a := testing.AllocsPerRun(5, func() { step2(want1, opts) }); a > copyAllocs {
		t.Errorf("repeated MapStep2 allocates %v times, want the copy's %d", a, copyAllocs)
	}
	m2.Assign[3] = -7
	if again := step2(want1, opts); !reflect.DeepEqual(again, want2) {
		t.Fatalf("MapStep2 after a caller overwrote its copy: %+v, want %+v", again, want2)
	}

	// A different noise level, and for Step 2 a different starting
	// assignment, are different questions: computed, and answered as a
	// decomposition that was never asked anything else answers them.
	noisy := MapOptions{Seed: 1, Noise: 4}
	noisy1, noisy2 := freshMappings(t, noisy, nil)
	if a := testing.AllocsPerRun(1, func() { step1(noisy); step1(opts) }); a <= 2*copyAllocs {
		t.Errorf("alternating noise levels allocates %v times: MapStep1 did not recompute", a)
	}
	if got := step1(noisy); !reflect.DeepEqual(got, noisy1) {
		t.Errorf("MapStep1 at noise 4: %+v, want %+v", got, noisy1)
	}
	if got := step2(noisy1, noisy); !reflect.DeepEqual(got, noisy2) {
		t.Errorf("MapStep2 at noise 4: %+v, want %+v", got, noisy2)
	}
	naive := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
	_, fromNaive := freshMappings(t, opts, naive)
	if got := step2(&Mapping{Assign: naive}, opts); !reflect.DeepEqual(got, fromNaive) {
		t.Errorf("MapStep2 from the contiguous assignment: %+v, want %+v", got, fromNaive)
	}
	if got := step2(want1, opts); !reflect.DeepEqual(got, want2) {
		t.Errorf("MapStep2 back at the Step-1 assignment: %+v, want %+v", got, want2)
	}
}

// defaultCost is the cost model MapOptions.defaults fills in.
func defaultCost() partition.CostModel {
	var o MapOptions
	o.defaults()
	return o.Cost
}

// TestMappingConcurrentCallers: runs sharing one decomposition may map at
// once, with different options; each gets the mapping of its own options.
func TestMappingConcurrentCallers(t *testing.T) {
	dec, err := Decompose(grid.Case118(), 9, DecomposeOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	all := []MapOptions{{Seed: 1}, {Seed: 1, Noise: 4}, {Seed: 5}}
	want1, want2 := make([]*Mapping, len(all)), make([]*Mapping, len(all))
	for i, o := range all {
		want1[i], want2[i] = freshMappings(t, o, nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				i := (g + k) % len(all)
				m1, err := dec.MapStep1(3, all[i])
				if err != nil || !reflect.DeepEqual(m1, want1[i]) {
					t.Errorf("goroutine %d: MapStep1(%+v) = %+v, %v; want %+v", g, all[i], m1, err, want1[i])
					return
				}
				m2, err := dec.MapStep2(3, m1, all[i])
				if err != nil || !reflect.DeepEqual(m2, want2[i]) {
					t.Errorf("goroutine %d: MapStep2(%+v) = %+v, %v; want %+v", g, all[i], m2, err, want2[i])
					return
				}
				m1.Assign[0], m2.Assign[0] = -1, -1
			}
		}(g)
	}
	wg.Wait()
}
