package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// spec is BENCHMARK.json, the contract this driver reports against.
type spec struct {
	Workloads []specWorkload `json:"workloads"`
	EndToEnd  []specMetric   `json:"end_to_end"`
	PerLayer  []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the
// driver was started there or in the benchmark directory.
func loadSpec() (*spec, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var sp spec
		if err := json.Unmarshal(b, &sp); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &sp, nil
	}
	return nil, firstErr
}

func readRunFile(path string) (*runFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r runFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareFiles(w io.Writer, pathA, pathB string) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := readRunFile(pathA)
	if err != nil {
		return err
	}
	b, err := readRunFile(pathB)
	if err != nil {
		return err
	}
	if a.runParams != b.runParams {
		return fmt.Errorf("the two files come from different runs and do not compare: %+v against %+v", a.runParams, b.runParams)
	}
	v := compareRuns(w, sp, a, b)
	fmt.Fprintf(w, "%d of %d rows regressed, %d unresolved\n", v.regressed, v.rows, v.unresolved)
	if v.regressed > 0 {
		return fmt.Errorf("%d metrics regressed", v.regressed)
	}
	return nil
}

// verdicts counts the rows of one comparison.
type verdicts struct{ rows, regressed, unresolved int }

// compareRuns prints one row per (workload, end-to-end metric). A row has
// regressed when b's median is worse than a's by more than the metric's
// bound, whatever the spread. Otherwise it is ok, unless the rounds spread
// wider than the bound and overlap: then the pair shows neither a
// regression nor its absence, and the row is unresolved.
func compareRuns(w io.Writer, sp *spec, a, b *runFile) verdicts {
	var v verdicts
	fmt.Fprintf(w, "%-15s %-17s %12s %12s %16s %6s  %s\n", "workload", "metric", "a", "b", "b/a (base a)", "bound", "verdict")
	for _, wl := range sp.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			continue
		}
		if rb.Failed > ra.Failed {
			fmt.Fprintf(w, "%-15s %-17s %12d %12d %16s %6s  regressed\n", wl.Name, "failed", ra.Failed, rb.Failed, "", "0")
			v.rows++
			v.regressed++
		}
		for _, m := range sp.EndToEnd {
			va, vb := ra.EndToEnd[m.Name].Value, rb.EndToEnd[m.Name].Value
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				v.regressed++
			case wideAndOverlapping(ra.PerRound[m.Name], rb.PerRound[m.Name], m.Bound):
				verdict = "unresolved"
				v.unresolved++
			}
			v.rows++
			fmt.Fprintf(w, "%-15s %-17s %12.6g %12.6g %7.4f (%.4g) %6.2f  %s\n",
				wl.Name, m.Name, va, vb, vb/va, va, m.Bound, verdict)
		}
	}
	return v
}

// wideAndOverlapping reports whether either side's rounds spread wider than
// bound, by the distance between their quartiles over their median (the
// statistic the gate applies across runs), while the two sides' ranges
// overlap.
func wideAndOverlapping(a, b []float64, bound float64) bool {
	if len(a) < 2 || len(b) < 2 {
		return false
	}
	if math.Max(iqrSpread(a), iqrSpread(b)) <= bound {
		return false
	}
	return quantile(a, 0) <= quantile(b, 1) && quantile(b, 0) <= quantile(a, 1)
}

// selfCheck runs two full sets of the same build and fails if either reads
// as a regression of the other. It reports how many rows it could not
// resolve, and claims agreement only for the rest.
func selfCheck(ctx context.Context, cfg config) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	human := cfg.log
	cfg.log = io.Discard
	var sets [2]*runFile
	for i := range sets {
		if sets[i], err = runSet(ctx, cfg); err != nil {
			return err
		}
		for name, rep := range sets[i].Workloads {
			if rep.Failed > 0 {
				return fmt.Errorf("set %d: %s: %d operations failed: %s", i+1, name, rep.Failed, rep.FirstFailure)
			}
		}
	}
	fwd, back := compareRuns(human, sp, sets[0], sets[1]), compareRuns(io.Discard, sp, sets[1], sets[0])
	if n := fwd.regressed + back.regressed; n > 0 {
		return fmt.Errorf("selfcheck: two sets of the same build disagree beyond the bound on %d of %d rows (%d unresolved)", n, fwd.rows, fwd.unresolved)
	}
	fmt.Fprintf(human, "selfcheck: %d rows: %d agree within their bounds, %d unresolved (rounds spread wider than the bound)\n",
		fwd.rows, fwd.rows-fwd.unresolved, fwd.unresolved)
	return nil
}
