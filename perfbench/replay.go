package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/experiments"
	"rush/internal/sim"
	"rush/internal/workload"
)

// replayRunner streams a synthetic capacity trace from an SWF file
// through the bounded-memory replay driver on full Quartz under
// FCFS+EASY.
type replayRunner struct {
	path string
	jobs int // jobs the trace holds
	days float64
	seed int64
}

// Capacity-trace shape, as in the repository's year-long replay
// benchmark: the seven proxy apps at hour-scale run times with
// class-dependent sizes, arriving every 31.5 s on average, which keeps
// Quartz near half utilization.
const replayInterarrival = 31.5

var replaySizes = map[apps.Class][]int{
	apps.ComputeIntensive: {2, 4, 8, 16, 32},
	apps.NetworkIntensive: {1, 2, 4, 8},
	apps.IOIntensive:      {1, 2},
}

// setupReplay writes the seed's trace to a file, so the timed replay
// streams it from disk and the measured heap is the driver's, not an
// input buffer's.
func setupReplay(e *env) (runner, error) {
	r := &replayRunner{
		path: filepath.Join(e.dir, fmt.Sprintf("capacity-%d.swf", e.setups)),
		days: e.ReplayDays,
		seed: e.seed,
	}
	f, err := os.Create(r.path)
	if err != nil {
		return nil, err
	}
	if r.jobs, err = writeCapacitySWF(f, e.seed, e.ReplayDays); err != nil {
		f.Close()
		return nil, err
	}
	return r, f.Close()
}

// writeCapacitySWF writes the trace as Standard Workload Format records
// and returns how many it wrote.
func writeCapacitySWF(w io.Writer, seed int64, days float64) (int, error) {
	rng := sim.NewSource(seed).Derive("perfbench-replay")
	profiles := apps.Defaults()
	cores := cluster.Quartz().CoresPerNode
	bw := bufio.NewWriter(w)
	n := 0
	for at := rng.Exponential(replayInterarrival); at <= days*86400; at += rng.Exponential(replayInterarrival) {
		p := profiles[n%len(profiles)]
		sizes := replaySizes[p.Class]
		nodes := sizes[(n/len(profiles))%len(sizes)]
		base := p.BaseTime(nodes, apps.ReferenceScale) * rng.Uniform(12, 24)
		estimate := base * rng.Uniform(workload.EstimateFactorRange[0], workload.EstimateFactorRange[1])
		// The 18 SWF fields: id submit wait runtime procs cpu mem
		// reqprocs reqtime reqmem status uid gid executable queue
		// partition preceding think. Runtimes are whole seconds (+1
		// keeps them positive); the executable ID maps back to p.
		fmt.Fprintf(bw, "%d %d -1 %d %d -1 -1 %d %d -1 1 1 1 %d 1 1 -1 -1\n",
			n+1, int64(at), int64(base)+1, nodes*cores, nodes*cores, int64(estimate)+1, n%len(profiles)+len(profiles))
		n++
	}
	return n, bw.Flush()
}

// timedStream times Next on a job stream and changes nothing else.
type timedStream struct {
	workload.JobStream
	elapsed time.Duration
}

func (s *timedStream) Next() (workload.SubmittedJob, bool, error) {
	t := time.Now()
	j, ok, err := s.JobStream.Next()
	s.elapsed += time.Since(t)
	return j, ok, err
}

// replayOutcome is what a replay iteration must reproduce for its seed.
type replayOutcome struct {
	Jobs, Submitted, FailedJobs, HighVariation int
	Makespan                                   float64
	WaitMean, WaitStd, WaitMax                 float64
	RunMean, RunStd, RunMax                    float64
	SlowdownMean, SlowdownStd, SlowdownMax     float64
}

func (r *replayRunner) iterate(_ int, tr *trace, chk *checker) (float64, any, error) {
	f, err := workload.OpenSWF(r.path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	topo := cluster.Quartz()
	var stream workload.JobStream = workload.NewSWFStream(f, workload.SWFOptions{
		CoresPerNode: topo.CoresPerNode, MaxNodes: topo.Nodes, Seed: r.seed,
	})
	var timed *timedStream
	if tr != nil {
		timed = &timedStream{JobStream: stream}
		stream = timed
	}
	sum, err := experiments.ReplayStream("perfbench-replay", stream, experiments.Baseline, nil, r.seed, experiments.Config{
		Topo:       topo,
		MaxSimTime: 2 * r.days * 86400,
		Metrics:    tr != nil,
	})
	if err != nil {
		return 0, nil, err
	}
	chk.check(sum.Jobs == r.jobs && sum.Submitted == r.jobs && sum.FailedJobs == 0,
		"replayed %d of %d submitted, %d in the trace, %d failed", sum.Jobs, sum.Submitted, r.jobs, sum.FailedJobs)
	out := replayOutcome{
		Jobs: sum.Jobs, Submitted: sum.Submitted, FailedJobs: sum.FailedJobs, HighVariation: sum.HighVariation,
		Makespan: sum.Makespan,
		WaitMean: sum.Wait.Mean, WaitStd: sum.Wait.Std(), WaitMax: sum.Wait.Max,
		RunMean: sum.Run.Mean, RunStd: sum.Run.Std(), RunMax: sum.Run.Max,
		SlowdownMean: sum.Slowdown.Mean, SlowdownStd: sum.Slowdown.Std(), SlowdownMax: sum.Slowdown.Max,
	}
	if tr != nil {
		tr.add("workload.next_s", timed.elapsed.Seconds())
		tr.add("sched.pass_s", counter(sum.Metrics, "sched_pass_wall_us")/1e6)
		tr.add("sched.passes", counter(sum.Metrics, "sched_passes_total"))
		tr.add("sim.events_fired", counter(sum.Metrics, "sim_events_fired_total"))
	}
	return float64(sum.Jobs), out, nil
}

func (r *replayRunner) close() error { return os.Remove(r.path) }
