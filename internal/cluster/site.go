package cluster

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/meas"
	"repro/internal/medici"
	"repro/internal/wls"
)

// Site is one HPC cluster in the testbed: a balancing-authority control
// center hosting a master node (the interface layer: middleware client +
// data processor) and a pool of compute workers that run the parallel
// state-estimation solver.
type Site struct {
	Name    string
	Workers int // goroutines for the parallel PCG solver

	client *medici.MWClient
}

// NewSite creates a site, binds its middleware client on listenAddr
// (":0" picks an ephemeral port) and registers it under its name.
func NewSite(name string, workers int, listenAddr string, reg *medici.Registry, tr medici.Transport) (*Site, error) {
	if workers <= 0 {
		workers = 1
	}
	cl, err := medici.NewMWClient(name, listenAddr, reg, tr, medici.LengthPrefixProtocol{}, 256)
	if err != nil {
		return nil, fmt.Errorf("cluster: site %s: %w", name, err)
	}
	return &Site{Name: name, Workers: workers, client: cl}, nil
}

// Client returns the site's middleware client (interface layer).
func (s *Site) Client() *medici.MWClient { return s.client }

// URL returns the site's endpoint URL.
func (s *Site) URL() string { return s.client.URL() }

// Close releases the site's network resources.
func (s *Site) Close() error { return s.client.Close() }

// EstimationJob is one subsystem state estimation assigned to a site.
type EstimationJob struct {
	// ID tags the job (subsystem index).
	ID int
	// Model is the subsystem's measurement model.
	Model *meas.Model
	// Opts configures the WLS solver; Workers is overridden by the site.
	Opts wls.Options
	// Engine optionally supplies a prebuilt reusable solver bound to Model
	// (the session layer's cached engine), so the job reuses its symbolic
	// plans instead of building throwaway ones. An engine must not be
	// shared between jobs that may run concurrently.
	Engine *wls.Engine
}

// solve runs the job's estimation through its engine when one is attached,
// else through a one-shot solve.
func (j EstimationJob) solve(ctx context.Context, opts wls.Options) (*wls.Result, error) {
	if j.Engine != nil {
		return j.Engine.EstimateCtx(ctx, opts)
	}
	return wls.EstimateCtx(ctx, j.Model, opts)
}

// JobResult pairs a job ID with its estimation outcome.
type JobResult struct {
	ID     int
	Result *wls.Result
	Err    error
}

// RunJobs executes the site's assigned estimations. Jobs run sequentially
// (one subsystem estimation at a time, as on a space-shared cluster
// allocation) but each estimation's linear algebra is parallelized across
// the site's workers. Cancellation is checked before each job and between
// the solver's Gauss-Newton iterations; canceled jobs report ctx.Err().
func (s *Site) RunJobs(ctx context.Context, jobs []EstimationJob) []JobResult {
	out := make([]JobResult, len(jobs))
	for i, j := range jobs {
		if err := ctx.Err(); err != nil {
			out[i] = JobResult{ID: j.ID, Err: err}
			continue
		}
		opts := j.Opts
		opts.Workers = s.Workers
		res, err := j.solve(ctx, opts)
		out[i] = JobResult{ID: j.ID, Result: res, Err: err}
	}
	return out
}

// RunJobsConcurrent executes the jobs with one goroutine per job — the
// gang-scheduled alternative, used by the ablation benchmarks to compare
// scheduling strategies on a site. Cancellation aborts every in-flight
// job at its next Gauss-Newton iteration.
func (s *Site) RunJobsConcurrent(ctx context.Context, jobs []EstimationJob) []JobResult {
	out := make([]JobResult, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j EstimationJob) {
			defer wg.Done()
			if err := ctx.Err(); err != nil {
				out[i] = JobResult{ID: j.ID, Err: err}
				return
			}
			opts := j.Opts
			opts.Workers = 1 // all parallelism spent across jobs
			res, err := j.solve(ctx, opts)
			out[i] = JobResult{ID: j.ID, Result: res, Err: err}
		}(i, j)
	}
	wg.Wait()
	return out
}

// Testbed is a set of sites with a shared registry, mirroring the paper's
// three-cluster laboratory network.
type Testbed struct {
	Registry *medici.Registry
	Sites    []*Site
}

// NewTestbed builds n sites named after the paper's clusters (Nwiceb,
// Catamount, Chinook, then site3, site4, …), each with the given worker
// count, connected over tr (nil = plain loopback TCP).
func NewTestbed(n, workersPerSite int, tr medici.Transport) (*Testbed, error) {
	names := []string{"Nwiceb", "Catamount", "Chinook"}
	reg := medici.NewRegistry()
	tb := &Testbed{Registry: reg}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("site%d", i)
		if i < len(names) {
			name = names[i]
		}
		s, err := NewSite(name, workersPerSite, "127.0.0.1:0", reg, tr)
		if err != nil {
			tb.Close()
			return nil, err
		}
		tb.Sites = append(tb.Sites, s)
	}
	return tb, nil
}

// HangUp closes every site's outbound links and leaves the sites up; the
// next send or fetch redials.
func (t *Testbed) HangUp() {
	for _, s := range t.Sites {
		s.Client().HangUp()
	}
}

// Close releases every site. All sites hang up before any closes its
// listener, so each link is closed from its dialing end (see
// medici.MWClient.HangUp for what the other order costs).
func (t *Testbed) Close() {
	t.HangUp()
	for _, s := range t.Sites {
		s.Close()
	}
}
