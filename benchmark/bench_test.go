package main

import (
	"context"
	"io"
	"regexp"
	"testing"
)

// TestSelfTimes checks self time on a hand-built span tree: children are
// clipped to their parent and overlapping children count once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "a", StartNS: 10, EndNS: 40, Parent: 0},
		{Name: "b", StartNS: 30, EndNS: 60, Parent: 0},    // overlaps a by 10
		{Name: "c", StartNS: 90, EndNS: 120, Parent: 0},   // runs 20 past op
		{Name: "a1", StartNS: 15, EndNS: 25, Parent: 1},   // grandchild of op
		{Name: "a", StartNS: 200, EndNS: 230, Parent: -1}, // second root of the same name
	}
	want := []int64{100 - (50 + 10), 30 - 10, 30, 30, 10, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self time %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	if by := selfByName(spans); by["a"] != 50 {
		t.Errorf("self time of name a: %d, want 50", by["a"])
	}
}

// TestCompareVerdicts checks the order of the rules: a median worse by more
// than the bound has regressed however wide the rounds spread, and a wide
// overlapping spread turns only an ok into unresolved.
func TestCompareVerdicts(t *testing.T) {
	sp := &spec{Workloads: []specWorkload{{Name: "w"}},
		EndToEnd: []specMetric{{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25}}}
	file := func(v float64, rounds ...float64) *runFile {
		return &runFile{Workloads: map[string]*workloadReport{"w": {
			EndToEnd: map[string]metric{"op_ms_p50": {v, "ms"}},
			PerRound: map[string][]float64{"op_ms_p50": rounds},
		}}}
	}
	wide := file(1, 0.6, 0.8, 1, 1.2, 1.4)
	tight := file(1, 0.98, 0.99, 1, 1.01, 1.02)
	for _, c := range []struct {
		name string
		a, b *runFile
		want verdicts
	}{
		{"beyond the bound, wide", wide, file(1.3, 0.9, 1.1, 1.3, 1.5, 1.7), verdicts{rows: 1, regressed: 1}},
		{"within the bound, wide", wide, file(1.1, 0.7, 0.9, 1.1, 1.3, 1.5), verdicts{rows: 1, unresolved: 1}},
		{"within the bound, tight", tight, file(1.1, 1.08, 1.09, 1.1, 1.11, 1.12), verdicts{rows: 1}},
	} {
		if got := compareRuns(io.Discard, sp, c.a, c.b); got != c.want {
			t.Errorf("%s: %+v, want %+v", c.name, got, c.want)
		}
	}
}

func smokeConfig(t *testing.T, seed int64) config {
	cfg := config{seed: seed, seconds: 1, rounds: 2, ops: 2, trace: true, size: smoke, outDir: t.TempDir(), log: io.Discard}
	for _, w := range workloads {
		cfg.names = append(cfg.names, w.name)
	}
	return cfg
}

// TestSmoke runs every workload for an untraced and a traced round of 2
// operations each, cut down in size,
// and checks the driver against BENCHMARK.json: every workload and metric
// the contract names is emitted, and a seed fixes the counters.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := runSet(ctx, smokeConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	again, err := runSet(ctx, smokeConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}

	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the driver has %d", len(sp.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, wl := range sp.Workloads {
		rep := first.Workloads[wl.Name]
		if rep == nil {
			t.Errorf("workload %s of BENCHMARK.json is not in the driver", wl.Name)
			continue
		}
		if rep.Failed != 0 || rep.Attempted != 4 {
			t.Errorf("%s: %d of %d operations failed (%s)", wl.Name, rep.Failed, rep.Attempted, rep.FirstFailure)
		}
		for kind, pair := range map[string]struct {
			want []specMetric
			got  map[string]metric
		}{"end_to_end": {sp.EndToEnd, rep.EndToEnd}, "per_layer": {sp.PerLayer, rep.PerLayer}} {
			if len(pair.got) != len(pair.want) {
				t.Errorf("%s: %d %s metrics emitted, BENCHMARK.json names %d", wl.Name, len(pair.got), kind, len(pair.want))
			}
			for _, m := range pair.want {
				got, ok := pair.got[m.Name]
				switch {
				case !name.MatchString(m.Name):
					t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
				case !ok:
					t.Errorf("%s: %s metric %s is not emitted", wl.Name, kind, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", wl.Name, m.Name, got.Unit, m.Unit)
				}
			}
		}
		// Counters and accuracy are functions of the seed alone.
		for _, c := range []string{"wls.gn_iters_per_op", "wls.cg_iters_per_op", "core.exchange_bytes_per_op", "medici.wire_msgs_per_op"} {
			if a, b := rep.PerLayer[c].Value, again.Workloads[wl.Name].PerLayer[c].Value; a != b {
				t.Errorf("%s: %s is %v then %v on the same seed", wl.Name, c, a, b)
			}
		}
		if a, b := rep.EndToEnd["state_err_mrad"].Value, again.Workloads[wl.Name].EndToEnd["state_err_mrad"].Value; a != b {
			t.Errorf("%s: state_err_mrad is %v then %v on the same seed", wl.Name, a, b)
		}
	}
}

func TestSeedChangesFrames(t *testing.T) {
	for _, w := range workloads {
		a, err := w.generate(1, smoke)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.generate(2, smoke)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i, m := range a.frames[0] {
			same = same && m.Value == b.frames[0][i].Value
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 give the same first frame", w.name)
		}
	}
}
