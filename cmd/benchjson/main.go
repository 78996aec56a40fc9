// Command benchjson converts `go test -bench` output into a stable JSON
// record, so the performance trajectory of the repo can be committed and
// diffed across PRs (BENCH_1.json, BENCH_2.json, ...).
//
// Usage:
//
//	go test -bench . -benchmem -count 5 | go run ./cmd/benchjson -o BENCH_1.json
//	go run ./cmd/benchjson -o BENCH_1.json bench.txt
//	go run ./cmd/benchjson -o BENCH_2.json -compare BENCH_1.json bench.txt
//
// With -compare OLD.json the tool additionally prints a per-benchmark
// ratio table (new/old ms/op and allocs/op, plus the new record's median
// and max/min spread) against a previously committed record, flagging
// entries whose time ratio exceeds -tol. The table opens with the control
// row (PartitionerScales): code the estimator's changes do not touch, so
// its drift between the records is the machines', and a drift over 15 % is
// flagged. The time ratios are a
// report, not a gate: CI machine noise routinely exceeds any tolerance. Allocation counts
// are deterministic for a given build, so a benchmark present in both
// records whose allocs/op rose by more than 5 % makes the tool exit with
// status 3 — the one result the CI bench job fails on.
//
// Repeated runs of the same benchmark (from -count N) are aggregated: the
// JSON records the minimum ns/op (the least-noise estimate of the true
// cost, and what -compare takes ratios of), the median ns/op and the
// max/min spread of the runs (how far that minimum can be trusted), the
// minimum B/op and allocs/op (deterministic for a given build, so min
// discards measurement artifacts), the mean of every b.ReportMetric value,
// and the run count.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Entry is the aggregated record of one benchmark.
type Entry struct {
	Runs        int                `json:"runs"`
	Iterations  int                `json:"iterations"`                 // b.N of the last run
	NsPerOp     float64            `json:"ns_per_op"`                  // minimum over the runs
	NsMedian    float64            `json:"ns_per_op_median,omitempty"` // records before BENCH_14 have none
	NsSpread    float64            `json:"ns_per_op_spread,omitempty"` // slowest run / fastest run
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`

	ns     []float64 // ns/op of every run
	sums   map[string]float64
	counts map[string]int
}

func main() {
	out := flag.String("o", "BENCH_1.json", "output JSON file ('-' for stdout)")
	compare := flag.String("compare", "", "previous JSON record to diff against (fails, status 3, only on an allocs/op rise > 5%)")
	tol := flag.Float64("tol", 1.10, "time ratio above which a benchmark is flagged as a regression")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	entries, err := parse(in)
	if err != nil {
		fatal(err)
	}
	if len(entries) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}
	for _, e := range entries {
		if len(e.sums) == 0 {
			continue
		}
		e.Metrics = make(map[string]float64, len(e.sums))
		for k, s := range e.sums {
			e.Metrics[k] = s / float64(e.counts[k])
		}
	}

	buf, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
	} else {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(entries), *out)
	}
	if *compare != "" {
		old, err := loadRecord(*compare)
		if err != nil {
			fatal(err)
		}
		if writeComparison(os.Stdout, old, entries, *tol) > 0 {
			os.Exit(exitAllocs)
		}
	}
}

// allocTol is the allocs/op ratio above which -compare fails, and
// exitAllocs the exit status that reports it (1 is any other error).
const (
	allocTol   = 1.05
	exitAllocs = 3
)

// loadRecord reads a previously committed benchmark JSON record.
func loadRecord(path string) (map[string]*Entry, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries map[string]*Entry
	if err := json.Unmarshal(buf, &entries); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return entries, nil
}

// controlDrift is the time drift of a control row beyond which two records
// are flagged as taken on machines that ran at different speeds.
const controlDrift = 0.15

// isControl reports whether name is a control row: a benchmark of code no
// estimator change touches, which leaves the graph partitioner. The Newton
// power flow solves its steps on the estimator's gain plan and LDLᵀ
// factor, so its rows are not controls.
func isControl(name string) bool {
	return strings.TrimPrefix(name, "Benchmark") == "PartitionerScales"
}

// writeControlDrift prints the new/old time ratio of every control row
// present in both records, flagging a drift over controlDrift, and returns
// how many drifted.
func writeControlDrift(w io.Writer, old, cur map[string]*Entry) int {
	var names []string
	for n := range cur {
		if o, ok := old[n]; ok && isControl(n) && o.NsPerOp > 0 {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return 0
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-64s %12s %12s %8s\n", "control row (machine drift)", "old ms/op", "new ms/op", "ratio")
	drifted := 0
	for _, n := range names {
		o, e := old[n], cur[n]
		ratio, note := e.NsPerOp/o.NsPerOp, ""
		if ratio > 1+controlDrift || ratio < 1-controlDrift {
			note = "  << drift"
			drifted++
		}
		fmt.Fprintf(w, "%-64s %12.3f %12.3f %7.2fx%s\n", n, o.NsPerOp/1e6, e.NsPerOp/1e6, ratio, note)
	}
	if drifted > 0 {
		fmt.Fprintf(w, "benchjson: %d of %d control rows drifted more than %.0f %%: the time ratios below measure the machines as much as the code\n", drifted, len(names), 100*controlDrift)
	}
	fmt.Fprintln(w)
	return drifted
}

// writeComparison prints the control rows' drift, then the per-benchmark
// new/old ratio table. Benchmarks
// present on only one side are listed as added/removed; a time ratio above
// tol is flagged, a reciprocal improvement is marked. It returns how many
// benchmarks' allocs/op rose past allocTol.
func writeComparison(w io.Writer, old, cur map[string]*Entry, tol float64) int {
	names := make([]string, 0, len(cur))
	for n := range cur {
		names = append(names, n)
	}
	sort.Strings(names)
	regressions, allocRises := 0, 0
	writeControlDrift(w, old, cur)
	fmt.Fprintf(w, "%-64s %12s %12s %8s %10s %12s %8s\n", "benchmark", "old ms/op", "new ms/op", "ratio", "allocs", "median", "spread")
	for _, n := range names {
		e := cur[n]
		o, ok := old[n]
		if !ok {
			fmt.Fprintf(w, "%-64s %12s %12.3f %8s %10s %12.3f %7.2fx\n", n, "-", e.NsPerOp/1e6, "added", "-", e.NsMedian/1e6, e.NsSpread)
			continue
		}
		ratio := 0.0
		if o.NsPerOp > 0 {
			ratio = e.NsPerOp / o.NsPerOp
		}
		allocs := "1.00x"
		if o.AllocsPerOp > 0 {
			allocs = fmt.Sprintf("%.2fx", e.AllocsPerOp/o.AllocsPerOp)
		} else if e.AllocsPerOp > 0 {
			allocs = "added"
		}
		note := ""
		switch {
		case ratio > tol:
			note = "  << regression"
			regressions++
		case ratio > 0 && ratio < 1/tol:
			note = "  (improved)"
		}
		if o.AllocsPerOp > 0 && e.AllocsPerOp > allocTol*o.AllocsPerOp {
			note += "  << allocs"
			allocRises++
		}
		fmt.Fprintf(w, "%-64s %12.3f %12.3f %7.2fx %10s %12.3f %7.2fx%s\n", n, o.NsPerOp/1e6, e.NsPerOp/1e6, ratio, allocs, e.NsMedian/1e6, e.NsSpread, note)
	}
	removed := make([]string, 0)
	for n := range old {
		if _, ok := cur[n]; !ok {
			removed = append(removed, n)
		}
	}
	sort.Strings(removed)
	for _, n := range removed {
		fmt.Fprintf(w, "%-64s %12.3f %12s %8s %10s\n", n, old[n].NsPerOp/1e6, "-", "removed", "-")
	}
	if regressions > 0 {
		fmt.Fprintf(w, "benchjson: %d benchmark(s) slower than %.2fx the previous record\n", regressions, tol)
	}
	if allocRises > 0 {
		fmt.Fprintf(w, "benchjson: %d benchmark(s) allocate more than %.2fx the previous record's allocs/op\n", allocRises, allocTol)
	}
	return allocRises
}

// parse scans go-test bench output. A benchmark line looks like
//
//	BenchmarkName-8  100  11059579 ns/op  52428 B/op  100 allocs/op  7.00 cg-iters
//
// i.e. name, iteration count, then value/unit pairs. Non-benchmark lines
// (ok/PASS/log output) are ignored. Names are kept verbatim (benchstat
// convention): a trailing "-N" may be go test's GOMAXPROCS tag or a
// sub-benchmark parameter (WECCScaleDSE/areas-12), and only the reader
// can tell which.
func parse(r io.Reader) (map[string]*Entry, error) {
	entries := make(map[string]*Entry)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		iters, err := strconv.Atoi(f[1])
		if err != nil {
			continue // e.g. "BenchmarkFoo--- FAIL" noise
		}
		name := f[0]
		e := entries[name]
		if e == nil {
			e = &Entry{sums: make(map[string]float64), counts: make(map[string]int)}
			entries[name] = e
		}
		e.Runs++
		e.Iterations = iters
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", line, f[i])
			}
			switch unit := f[i+1]; unit {
			case "ns/op":
				e.ns = append(e.ns, v)
			case "B/op":
				if e.Runs == 1 || v < e.BytesPerOp {
					e.BytesPerOp = v
				}
			case "allocs/op":
				if e.Runs == 1 || v < e.AllocsPerOp {
					e.AllocsPerOp = v
				}
			default:
				e.sums[unit] += v
				e.counts[unit]++
			}
		}
	}
	for _, e := range entries {
		if len(e.ns) == 0 {
			continue
		}
		sort.Float64s(e.ns)
		mid := len(e.ns) / 2
		e.NsPerOp, e.NsMedian = e.ns[0], e.ns[mid]
		if len(e.ns)%2 == 0 {
			e.NsMedian = (e.ns[mid-1] + e.ns[mid]) / 2
		}
		if e.ns[0] > 0 {
			e.NsSpread = e.ns[len(e.ns)-1] / e.ns[0]
		}
	}
	return entries, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
