package experiments

import (
	"fmt"
	"math"

	"rush/internal/core"
	"rush/internal/sched"
	"rush/internal/workload"
)

// Streaming replay: the long-horizon result model. RunTrialJobs keeps
// one JobRecord per completion, which is exactly right for the paper's
// half-day Table II trials and exactly wrong for a million-job year.
// ReplayStream runs the same driver but folds each completed job into
// running aggregates and drops it, and relies on the machine's history
// pruning to keep telemetry state windowed. Peak memory is then set by
// the queue depth the workload actually reaches, not by how long the
// trace is.

// Welford is a streaming mean/variance accumulator (Welford's online
// algorithm), plus the max — the one-pass replacement for the per-job
// records RunTrialJobs keeps.
type Welford struct {
	N    int
	Mean float64
	Max  float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(v float64) {
	w.N++
	d := v - w.Mean
	w.Mean += d / float64(w.N)
	w.m2 += d * (v - w.Mean)
	if v > w.Max {
		w.Max = v
	}
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 {
	if w.N < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.N-1))
}

// ReplaySummary is the streaming analogue of Trial: everything in it is
// O(1) in trace length. It carries the same outcome fields as Trial —
// Makespan, gate, fault and lifecycle outcomes, Trace and Metrics.
type ReplaySummary struct {
	Experiment string
	Policy     Policy
	Seed       int64
	TopoNodes  int

	// Jobs counts completions (including failed jobs); Submitted counts
	// jobs handed to the scheduler (equal to Jobs after a clean drain).
	Jobs      int
	Submitted int

	// Wait, Run, and Slowdown aggregate per-job wait seconds, realized
	// run seconds, and run-over-base-work slowdown across all non-failed
	// jobs.
	Wait     Welford
	Run      Welford
	Slowdown Welford
	// HighVariation counts non-failed jobs whose slowdown reached the
	// configured threshold (Config.ReplaySlowdown).
	HighVariation int

	// PeakHeapBytes is the largest Go heap the MemSample sampler saw
	// during the run (0 when sampling is off).
	PeakHeapBytes uint64

	outcome

	slowdownMin float64
}

// observe folds one completed job into the per-job aggregates.
func (r *ReplaySummary) observe(j *sched.Job) {
	r.Jobs++
	if j.Failed {
		return
	}
	r.Wait.Add(j.WaitTime())
	r.Run.Add(j.RunTime())
	sd := j.RunTime() / j.BaseWork
	r.Slowdown.Add(sd)
	if sd >= r.slowdownMin {
		r.HighVariation++
	}
}

// ReplayStream executes a lazily produced job stream under the given
// policy and returns streaming aggregates. The stream must yield jobs in
// non-decreasing SubmitAt order (both workload.NewSWFStream and
// workload.NewSliceStream over a sorted slice do). It runs the same
// driver as RunTrialJobs, so one stream yields the same trace under
// either.
//
// Unlike RunTrialJobs, a zero MaxSimTime means unbounded: a year-scale
// replay is the purpose of this entry point, not a runaway.
func ReplayStream(name string, stream workload.JobStream, policy Policy, pred *core.Predictor, seed int64, cfg Config) (*ReplaySummary, error) {
	if cfg.MaxSimTime <= 0 {
		cfg.MaxSimTime = math.Inf(1)
	}
	cfg.fill()
	sum := &ReplaySummary{
		Experiment: name, Policy: policy, Seed: seed,
		TopoNodes: cfg.Topo.Nodes, slowdownMin: cfg.ReplaySlowdown,
	}
	var err error
	sum.Submitted, sum.PeakHeapBytes, err = drive(name, stream, policy, pred, seed, cfg, &sum.outcome, sum.observe)
	if err != nil {
		return nil, err
	}
	if sum.Submitted == 0 {
		return nil, fmt.Errorf("experiments: replay stream yielded no jobs")
	}
	return sum, nil
}
