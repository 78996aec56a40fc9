// Command benchmark is the repository's gating benchmark: a single-process,
// closed-loop driver that runs named workloads against the estimation stack
// through its exported functions, checks every output, and reports
// end-to-end metrics (untraced) or per-layer metrics (traced). See
// README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// rounds is how many rounds a workload's measured time is split into. A
// round is the stretch between two yardstick bursts, and the calibration
// follows the machine the better the shorter it is (README, "Steadiness").
const rounds = 32

type config struct {
	names   []string
	seed    int64
	seconds float64 // measured time per workload
	rounds  int     // rounds, except in the smoke test
	ops     int     // smoke test only: operations per round; 0 = rounds are time windows of seconds/rounds
	trace   bool
	size    sizing
	outDir  string
	log     io.Writer
}

// workloadReport is one workload's part of a result file.
type workloadReport struct {
	Attempted    int                  `json:"attempted"`
	Failed       int                  `json:"failed"`
	FirstFailure string               `json:"first_failure,omitempty"`
	EndToEnd     map[string]metric    `json:"end_to_end"`
	PerRound     map[string][]float64 `json:"per_round"`
	PerLayer     map[string]metric    `json:"per_layer,omitempty"`
	Shares       map[string]metric    `json:"shares,omitempty"`
}

// runParams is what two result files must share to be comparable.
type runParams struct {
	Seed       int64   `json:"seed"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seconds    float64 `json:"seconds"`
	Rounds     int     `json:"rounds"`
	Ops        int     `json:"ops_per_round"`
}

// runFile is what -compare reads: one full set of runs.
type runFile struct {
	runParams
	Workloads map[string]*workloadReport `json:"workloads"`
}

// roundSpecs lays out the measured rounds. A traced run traces every second
// round, so that the two operation-time medians behind
// gridse.trace_overhead_frac see the same machine.
func (cfg config) roundSpecs() []roundSpec {
	specs := make([]roundSpec, cfg.rounds)
	for r := range specs {
		specs[r] = roundSpec{budget: time.Duration(cfg.seconds / float64(cfg.rounds) * float64(time.Second)),
			ops: cfg.ops, traced: cfg.trace && r%2 == 1}
	}
	return specs
}

// runSet generates inputs for, sets up and measures the named workloads.
// Rounds go round-robin over the workloads with state kept warm between
// them, so a noisy minute hits one round of each workload, not one whole
// workload.
func runSet(ctx context.Context, cfg config) (*runFile, error) {
	type live struct {
		inst     instance
		setups   []setupTimes
		setupCal float64
		t        *tally
	}
	var set []*live
	start := time.Now()
	for _, name := range cfg.names {
		w, ok := workloadByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		in, err := w.generate(cfg.seed, cfg.size)
		if err != nil {
			return nil, fmt.Errorf("%s: generating inputs: %w", name, err)
		}
		k := w.setups
		if cfg.size.setups > 0 {
			k = cfg.size.setups
		}
		inst, setups, setupCal, err := timedSetups(ctx, w, in, k)
		if err != nil {
			return nil, err
		}
		var tr *tracer
		if cfg.trace {
			tr = newTracer(start)
		}
		set = append(set, &live{inst, setups, setupCal, newTally(w, in, tr)})
	}
	for _, spec := range cfg.roundSpecs() {
		for _, l := range set {
			l.t.runRound(ctx, l.inst, spec)
		}
	}

	out := &runFile{runParams{cfg.seed, runtime.GOMAXPROCS(0), cfg.seconds, cfg.rounds, cfg.ops},
		make(map[string]*workloadReport)}
	for _, l := range set {
		t := l.t
		e2e, perRound := t.endToEnd(l.setups, l.setupCal)
		rep := &workloadReport{Attempted: t.attempted, Failed: t.failed, FirstFailure: t.firstFail,
			EndToEnd: toMap(e2e), PerRound: perRound}
		out.Workloads[t.w.name] = rep
		fmt.Fprintf(cfg.log, "workload %s  seed %d  GOMAXPROCS %d  ops %d in %d rounds  failed %d\n",
			t.w.name, cfg.seed, out.GOMAXPROCS, t.attempted, len(t.rounds), t.failed)
		if t.failed > 0 {
			fmt.Fprintf(cfg.log, "  first failure: %s\n", t.firstFail)
		}
		printRows(cfg.log, e2e)
		printRows(cfg.log, []row{{"fail_frac", ratio(float64(t.failed), float64(t.attempted)), "1"}})
		if !cfg.trace {
			continue
		}
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		ly, err := replay(ctx, t.w, t.in, t.tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.w.name, err)
		}
		if !ly.mirrors {
			fmt.Fprintf(cfg.log, "  note: the replayed Gauss-Newton no longer reproduces wls.Engine's estimate; meas/sparse/wls attribution is off\n")
		}
		layer, shares := t.perLayer(l.setups, ly, float64(m.HeapAlloc)/(1<<20)), t.shares(ly)
		rep.PerLayer, rep.Shares = toMap(layer), toMap(shares)
		printRows(cfg.log, layer)
		printRows(cfg.log, shares)
	}
	if cfg.trace {
		all := &tracer{}
		for _, l := range set {
			all.append(l.t.tr)
		}
		path := filepath.Join(cfg.outDir, "trace.json")
		if err := all.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.log, "%d spans written to %s\n", len(all.spans), path)
	}
	return out, nil
}

// resultLine is the last line of a single-workload run.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadFlag := fs.String("workload", "all", "workload to run, or all for a full set (rounds round-robin over every workload)")
	seed := fs.Int64("seed", 1, "input-generation seed")
	seconds := fs.Float64("seconds", 16, "measured time per workload")
	trace := fs.Int("trace", 0, "1 = traced run: spans, layer replay and per-layer metrics")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	selfcheck := fs.Bool("selfcheck", false, "run two full sets of this build and fail if they disagree beyond the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 {
		return fmt.Errorf("need seconds > 0")
	}

	// The program sizes itself from GOMAXPROCS: every Workers option is
	// left at its default.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	cfg := config{seed: *seed, seconds: *seconds, rounds: rounds, trace: *trace != 0,
		size: full, outDir: defaultOutDir(), log: stdout}
	if *workloadFlag == "all" {
		for _, w := range workloads {
			cfg.names = append(cfg.names, w.name)
		}
	} else {
		cfg.names = strings.Split(*workloadFlag, ",")
	}
	ctx := context.Background()

	if *selfcheck {
		return selfCheck(ctx, cfg)
	}
	res, err := runSet(ctx, cfg)
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "result.json")
	if err := writeJSON(path, res); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "results written to %s\n", path)
	failed := 0
	for _, rep := range res.Workloads {
		failed += rep.Failed
	}
	if len(cfg.names) == 1 {
		rep := res.Workloads[cfg.names[0]]
		line := resultLine{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.EndToEnd}
		if cfg.trace {
			line.Metrics = rep.PerLayer
		}
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", b)
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed their checks", failed)
	}
	return nil
}

// defaultOutDir is benchmark/out from the repository root and out from the
// benchmark directory itself.
func defaultOutDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}
