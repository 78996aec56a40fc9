package main

import (
	"io"
	"strings"
	"testing"
)

func TestParseAggregatesRuns(t *testing.T) {
	in := strings.NewReader(`
goos: linux
BenchmarkSolve-8  100  2000000 ns/op  1024 B/op  10 allocs/op  7.00 cg-iters
BenchmarkSolve-8  120  1500000 ns/op  1024 B/op  10 allocs/op  9.00 cg-iters
BenchmarkOther-8   50  3000000 ns/op
PASS
`)
	entries, err := parse(in)
	if err != nil {
		t.Fatal(err)
	}
	e := entries["BenchmarkSolve-8"]
	if e == nil || e.Runs != 2 {
		t.Fatalf("BenchmarkSolve-8 runs = %+v, want 2", e)
	}
	if e.NsPerOp != 1500000 {
		t.Fatalf("ns/op = %g, want min 1500000", e.NsPerOp)
	}
	if got := e.sums["cg-iters"] / float64(e.counts["cg-iters"]); got != 8 {
		t.Fatalf("cg-iters mean = %g, want 8", got)
	}
	if entries["BenchmarkOther-8"].NsPerOp != 3000000 {
		t.Fatalf("BenchmarkOther-8 = %+v", entries["BenchmarkOther-8"])
	}
}

// TestMedianAndSpreadOverCount: five runs of one benchmark, as -count 5
// prints them. The record keeps the minimum, adds the median and the
// slowest/fastest ratio, and the comparison table prints both.
func TestMedianAndSpreadOverCount(t *testing.T) {
	entries, err := parse(strings.NewReader(`
BenchmarkCold  20  40000000 ns/op  13762138 B/op  224 allocs/op
BenchmarkCold  20  34000000 ns/op  13762136 B/op  224 allocs/op
BenchmarkCold  20  51000000 ns/op  13762140 B/op  225 allocs/op
BenchmarkCold  20  36000000 ns/op  13762136 B/op  224 allocs/op
BenchmarkCold  20  35000000 ns/op  13762136 B/op  224 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	e := entries["BenchmarkCold"]
	if e == nil || e.Runs != 5 {
		t.Fatalf("BenchmarkCold = %+v, want 5 runs", e)
	}
	if e.NsPerOp != 34e6 || e.NsMedian != 36e6 || e.NsSpread != 1.5 {
		t.Fatalf("min %g median %g spread %g, want 3.4e7, 3.6e7, 1.5", e.NsPerOp, e.NsMedian, e.NsSpread)
	}
	if e.BytesPerOp != 13762136 || e.AllocsPerOp != 224 {
		t.Fatalf("B/op %g allocs/op %g, want the minima 13762136 and 224", e.BytesPerOp, e.AllocsPerOp)
	}
	// An older record has no median; the ratio is still minimum over minimum.
	var sb strings.Builder
	old := map[string]*Entry{"BenchmarkCold": {NsPerOp: 68e6, AllocsPerOp: 3106}}
	if rises := writeComparison(&sb, old, entries, 1.10); rises != 0 {
		t.Fatalf("%d allocs/op rises reported, want 0", rises)
	}
	for _, want := range []string{"median", "spread", "0.50x", "36.000", "1.50x", "(improved)"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("comparison output missing %q:\n%s", want, sb.String())
		}
	}
	// Two runs: the median is their mean.
	entries, err = parse(strings.NewReader("BenchmarkX 1 10 ns/op\nBenchmarkX 1 30 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if e := entries["BenchmarkX"]; e.NsPerOp != 10 || e.NsMedian != 20 || e.NsSpread != 3 {
		t.Fatalf("two runs: %+v, want min 10 median 20 spread 3", e)
	}
}

func TestWriteComparisonFlagsRegressions(t *testing.T) {
	old := map[string]*Entry{
		"BenchmarkFast-8":    {NsPerOp: 1e6, AllocsPerOp: 10},
		"BenchmarkSlow-8":    {NsPerOp: 1e6, AllocsPerOp: 10},
		"BenchmarkRemoved-8": {NsPerOp: 1e6},
	}
	cur := map[string]*Entry{
		"BenchmarkFast-8":  {NsPerOp: 0.5e6, AllocsPerOp: 10},
		"BenchmarkSlow-8":  {NsPerOp: 2e6, AllocsPerOp: 20},
		"BenchmarkAdded-8": {NsPerOp: 1e6},
	}
	var sb strings.Builder
	if rises := writeComparison(&sb, old, cur, 1.10); rises != 1 {
		t.Fatalf("%d allocs/op rises reported, want 1 (BenchmarkSlow, 10 -> 20)", rises)
	}
	// Time alone never gates, nor does an allocation rise within 5 %.
	steady := map[string]*Entry{"BenchmarkB-8": {NsPerOp: 1e6, AllocsPerOp: 100}}
	slower := map[string]*Entry{"BenchmarkB-8": {NsPerOp: 5e6, AllocsPerOp: 104}}
	if rises := writeComparison(io.Discard, steady, slower, 1.10); rises != 0 {
		t.Fatalf("%d allocs/op rises reported for 100 -> 104, want 0", rises)
	}
	out := sb.String()
	for _, want := range []string{
		"<< regression",  // BenchmarkSlow at 2.00x
		"(improved)",     // BenchmarkFast at 0.50x
		"added",          // BenchmarkAdded has no old record
		"removed",        // BenchmarkRemoved has no new record
		"2.00x",          // slow time ratio and alloc ratio
		"1 benchmark(s)", // regression summary line
		"<< allocs",      // BenchmarkSlow allocates 2.00x
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("comparison output missing %q:\n%s", want, out)
		}
	}
}

// TestControlRowsPrintedFirst: the control rows open the comparison, a
// drift past 15 % either way is flagged, and drift alone never fails it. The
// power-flow rows are not controls: a drifted one, fast-decoupled included,
// is a regression in the table, never a drift.
func TestControlRowsPrintedFirst(t *testing.T) {
	old := map[string]*Entry{
		"BenchmarkFastDecoupledVsNewton/fast-decoupled": {NsPerOp: 1e6},
		"BenchmarkFastDecoupledVsNewton/newton":         {NsPerOp: 1e6},
		"BenchmarkPowerFlow118":                         {NsPerOp: 1e6},
		"BenchmarkPartitionerScales":                    {NsPerOp: 1e6},
		"BenchmarkAbc":                                  {NsPerOp: 1e6, AllocsPerOp: 10},
	}
	cur := map[string]*Entry{
		"BenchmarkFastDecoupledVsNewton/fast-decoupled": {NsPerOp: 1.4e6},
		"BenchmarkFastDecoupledVsNewton/newton":         {NsPerOp: 1.4e6},
		"BenchmarkPowerFlow118":                         {NsPerOp: 1.1e6},
		"BenchmarkPartitionerScales":                    {NsPerOp: 0.8e6},
		"BenchmarkAbc":                                  {NsPerOp: 1e6, AllocsPerOp: 10},
	}
	var sb strings.Builder
	if rises := writeComparison(&sb, old, cur, 1.10); rises != 0 {
		t.Fatalf("%d allocs/op rises reported, want 0", rises)
	}
	out := sb.String()
	control, table := strings.Index(out, "control row"), strings.Index(out, "BenchmarkAbc")
	if control < 0 || table < control {
		t.Fatalf("control rows do not open the comparison:\n%s", out)
	}
	if n := strings.Count(out[:table], "<< drift"); n != 1 {
		t.Fatalf("%d control rows flagged, want 1 (PartitionerScales at 0.80x):\n%s", n, out)
	}
	if !strings.Contains(out, "1 of 1 control rows drifted") {
		t.Fatalf("no drift summary:\n%s", out)
	}
	if strings.Contains(out[:table], "newton") || strings.Contains(out[:table], "PowerFlow118") {
		t.Fatalf("a Newton power-flow row is printed as a control:\n%s", out)
	}
	if strings.Contains(out[:table], "fast-decoupled") {
		t.Fatalf("the fast-decoupled row is printed as a control:\n%s", out)
	}
	newton := strings.Index(out, "BenchmarkFastDecoupledVsNewton/newton")
	if line, _, _ := strings.Cut(out[max(newton, 0):], "\n"); newton < table || !strings.Contains(line, "<< regression") || strings.Contains(line, "drift") {
		t.Fatalf("the 1.40x newton row is not a regression in the table:\n%s", out)
	}
	if writeControlDrift(io.Discard, map[string]*Entry{"BenchmarkAbc": {NsPerOp: 1}}, cur) != 0 {
		t.Fatal("a record without control rows reported drift")
	}
	if writeControlDrift(io.Discard, old, map[string]*Entry{"BenchmarkPartitionerScales": {NsPerOp: 1.1e6}}) != 0 {
		t.Fatal("a 1.10x control row was counted as drift")
	}
}
