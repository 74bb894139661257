package experiments

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rush/internal/core"
	"rush/internal/obs"
	"rush/internal/workload"
)

// replayFixture loads the archive-style SWF excerpt the workload package
// uses for its loader differentials.
func replayFixture(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "workload", "testdata", "excerpt.swf"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fixtureJobs converts the fixture through the in-memory reference
// loader.
func fixtureJobs(t *testing.T, opts workload.SWFOptions) []workload.SubmittedJob {
	t.Helper()
	trace, err := workload.ParseSWF(bytes.NewReader(replayFixture(t)))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.FromSWF(trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestReplayStreamingMatchesInMemory is the tentpole differential: a
// replay fed lazily from SWF bytes must be bit-identical — trace bytes
// and all aggregates — to one fed from the fully materialized job
// slice, across seeds and intra-trial worker counts.
func TestReplayStreamingMatchesInMemory(t *testing.T) {
	raw := replayFixture(t)
	for _, seed := range []int64{1, 2, 3} {
		for _, workers := range []int{1, 8} {
			opts := workload.SWFOptions{Seed: seed}
			cfg := Config{Trace: true, Metrics: true, EngineWorkers: workers}

			streamed, err := ReplayStream("swf-stream", workload.NewSWFStream(bytes.NewReader(raw), opts),
				Baseline, nil, seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			inMemory, err := ReplayStream("swf-stream", workload.NewSliceStream(fixtureJobs(t, opts)),
				Baseline, nil, seed, cfg)
			if err != nil {
				t.Fatal(err)
			}

			if !bytes.Equal(streamed.Trace, inMemory.Trace) {
				t.Fatalf("seed %d workers %d: streaming and in-memory traces differ", seed, workers)
			}
			sd, md := *streamed, *inMemory
			sd.Trace, md.Trace = nil, nil
			sd.Metrics, md.Metrics = nil, nil
			if !reflect.DeepEqual(sd, md) {
				t.Fatalf("seed %d workers %d: summaries differ:\n stream %+v\n memory %+v", seed, workers, sd, md)
			}
		}
	}
}

// eagerTrial is the eager-order oracle for the single driver: it
// pre-queues one submit event per job on a fresh environment before the
// run, drains, and builds the Trial from the scheduler's retained
// completion list. Equal submit times fire in slice order.
func eagerTrial(name string, jobs []workload.SubmittedJob, policy Policy, pred *core.Predictor, seed int64, cfg Config) (*Trial, error) {
	cfg.fill()
	env, err := newTrialEnv(name, policy, pred, seed, cfg)
	if err != nil {
		return nil, err
	}
	eng, s := env.eng, env.s
	var submitErr error
	for _, sj := range jobs {
		eng.At(sj.SubmitAt, func() {
			if err := s.Submit(sj.Job); err != nil && submitErr == nil {
				submitErr = err
			}
		})
	}
	for submitErr == nil && len(s.Completed()) < len(jobs) {
		if eng.Now() > cfg.MaxSimTime || !eng.Step() {
			return nil, fmt.Errorf("eager oracle stalled at t=%v with %d/%d jobs done",
				eng.Now(), len(s.Completed()), len(jobs))
		}
	}
	if submitErr != nil {
		return nil, submitErr
	}
	tr := &Trial{Experiment: name, Policy: policy, Seed: seed, TopoNodes: cfg.Topo.Nodes}
	for _, j := range s.Completed() {
		tr.Jobs = append(tr.Jobs, jobRecord(j))
		tr.complete(j)
	}
	return tr, env.harvest(&tr.outcome)
}

// counterValue returns the named counter from a snapshot (0 if absent).
func counterValue(snap *obs.Snapshot, name string) float64 {
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// maskCounters zeroes the counters the eager oracle legitimately
// disagrees on: the engine's event counters (checked separately) and
// wall-clock time.
func maskCounters(snap *obs.Snapshot) {
	for i, c := range snap.Counters {
		if strings.HasPrefix(c.Name, "sim_events_") || strings.HasSuffix(c.Name, "_wall_us") {
			snap.Counters[i].Value = 0
		}
	}
}

// sameInstantSubmissions counts jobs that share their submit time with
// an earlier job: the submit events the front-band feeder saves by
// submitting every job of one instant from a single firing.
func sameInstantSubmissions(jobs []workload.SubmittedJob) int {
	instants := map[float64]bool{}
	for _, sj := range jobs {
		instants[sj.SubmitAt] = true
	}
	return len(jobs) - len(instants)
}

// TestReplayMatchesEagerDriver pins the front-band feeder design: the
// single driver must reproduce the eager oracle byte for byte — trace
// and every Trial field — even though its submissions are injected
// mid-run by a re-armed event instead of being pre-queued. Any
// tie-break divergence between a lazily fed submission and a simulation
// event at the same instant shows up here. The matrix is every Table II
// spec under every policy, clean, under all faults, and with the model
// lifecycle on, over two seeds. The metrics snapshots agree too, except
// for wall-clock time and the engine's event counters, which drop by
// exactly the number of same-instant submissions.
func TestReplayMatchesEagerDriver(t *testing.T) {
	pred := predictor(t)
	scenarios := []struct {
		name string
		cfg  Config
	}{
		{"clean", Config{}},
		{"all-faults", Config{Faults: DefaultFaultScenarios()[4].Faults}},
		{"lifecycle", Config{
			Lifecycle: trialScale(driftyLifecycle()),
			Faults:    DefaultDriftScenarios()[4].Faults,
		}},
	}
	for _, spec := range workload.TableII() {
		for _, policy := range []Policy{Baseline, RUSH, Canary} {
			for _, sc := range scenarios {
				for _, seed := range []int64{1, 2} {
					cfg := sc.cfg
					cfg.Trace, cfg.Metrics = true, true
					t.Run(fmt.Sprintf("%s/%s/%s/seed%d", spec.Name, policy, sc.name, seed), func(t *testing.T) {
						t.Parallel()
						// Each run gets freshly generated jobs: the
						// scheduler mutates the jobs it is handed.
						gen := func() []workload.SubmittedJob {
							jobs, err := workload.Generate(spec, seed)
							if err != nil {
								t.Fatal(err)
							}
							return jobs
						}
						jobs := gen()
						want, err := eagerTrial(spec.Name, jobs, policy, pred, seed, cfg)
						if err != nil {
							t.Fatalf("eager oracle: %v", err)
						}
						got, err := RunTrialJobs(spec.Name, gen(), policy, pred, seed, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(want.Trace, got.Trace) {
							t.Fatalf("trace diverges from the eager oracle's:\n%s", firstTraceDiff(want.Trace, got.Trace))
						}
						saved := float64(sameInstantSubmissions(jobs))
						for _, c := range []string{"sim_events_fired_total", "sim_events_scheduled_total"} {
							if d := counterValue(want.Metrics, c) - counterValue(got.Metrics, c); d != saved {
								t.Fatalf("%s dropped by %v, want %v", c, d, saved)
							}
						}
						maskCounters(want.Metrics)
						maskCounters(got.Metrics)
						if !reflect.DeepEqual(want, got) {
							t.Fatal("trial diverges from the eager oracle's")
						}
					})
				}
			}
		}
	}
}

// TestReplayStreamMatchesEagerOnSWF runs the archive-style fixture
// through ReplayStream and the eager oracle: the streaming aggregates
// must agree with recomputing them from the oracle's job records.
func TestReplayStreamMatchesEagerOnSWF(t *testing.T) {
	for _, seed := range []int64{1, 2, 5} {
		// The fixture's longest job runs ~7.2 simulated hours; give the
		// eager oracle headroom past the 6h default.
		cfg := Config{Trace: true, MaxSimTime: 48 * 3600}
		trial, err := eagerTrial("swf-replay", fixtureJobs(t, workload.SWFOptions{Seed: seed}), Baseline, nil, seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := ReplayStream("swf-replay", workload.NewSliceStream(fixtureJobs(t, workload.SWFOptions{Seed: seed})),
			Baseline, nil, seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(trial.Trace, sum.Trace) {
			t.Fatalf("seed %d: streaming trace diverges from the eager oracle's:\n%s", seed,
				firstTraceDiff(trial.Trace, sum.Trace))
		}
		if sum.Jobs != len(trial.Jobs) || !reflect.DeepEqual(sum.outcome, trial.outcome) {
			t.Fatalf("seed %d: outcomes differ:\n stream %d %+v\n eager  %d %+v",
				seed, sum.Jobs, sum.outcome, len(trial.Jobs), trial.outcome)
		}
		var wait Welford
		for _, r := range trial.Jobs {
			if !r.Failed {
				wait.Add(r.Wait)
			}
		}
		if math.Abs(sum.Wait.Mean-wait.Mean) > 1e-9 || sum.Wait.N != wait.N {
			t.Fatalf("seed %d: wait aggregate %v/%d vs %v/%d",
				seed, sum.Wait.Mean, sum.Wait.N, wait.Mean, wait.N)
		}
	}
}

// TestRunTrialJobsLeavesCallerOrder pins that RunTrialJobs sorts a copy:
// callers such as examples/priorities keep using their own slice.
func TestRunTrialJobsLeavesCallerOrder(t *testing.T) {
	spec, _ := workload.SpecByName("ADAA")
	jobs, err := workload.Generate(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]workload.SubmittedJob(nil), jobs...)
	if sort.SliceIsSorted(jobs, func(a, b int) bool { return jobs[a].SubmitAt < jobs[b].SubmitAt }) {
		t.Fatal("generated jobs are already in submit order; the test needs an unsorted slice")
	}
	if _, err := RunTrialJobs(spec.Name, jobs, Baseline, nil, 3, Config{}); err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Job != before[i].Job || jobs[i].SubmitAt != before[i].SubmitAt {
			t.Fatalf("RunTrialJobs reordered the caller's slice at index %d", i)
		}
	}
}

// TestReplayStreamReportsLifecycle pins that the streaming result model
// carries the lifecycle outcomes: a drifting RUSH replay with the
// lifecycle on reports exactly what RunTrialJobs reports for the same
// jobs.
func TestReplayStreamReportsLifecycle(t *testing.T) {
	pred := predictor(t)
	spec, _ := workload.SpecByName("ADAA")
	sc := DefaultDriftScenarios()[4]
	cfg := Config{Lifecycle: trialScale(driftyLifecycle()), Faults: sc.Faults}
	sortedJobs := func() []workload.SubmittedJob {
		jobs, err := workload.Generate(spec, 21)
		if err != nil {
			t.Fatal(err)
		}
		sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].SubmitAt < jobs[b].SubmitAt })
		return jobs
	}
	tr, err := RunTrialJobs(spec.Name, sortedJobs(), RUSH, pred, 21, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := ReplayStream(spec.Name, workload.NewSliceStream(sortedJobs()), RUSH, pred, 21, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.DriftDetections == 0 || tr.ShadowPredictions == 0 {
		t.Fatalf("drifting trial exercised no lifecycle: %+v", tr.outcome)
	}
	if !reflect.DeepEqual(sum.outcome, tr.outcome) {
		t.Fatalf("replay lifecycle outcomes differ:\n replay %+v\n trial  %+v", sum.outcome, tr.outcome)
	}
}

// TestReplayPruningDifferential pins the retention contract: pruning
// exists purely to bound memory, so keeping extra telemetry history
// must not change a single event. (The prune cadence itself stays
// fixed — prune events share the engine's sequence counter, so a
// different interval legitimately relabels event ties.)
func TestReplayPruningDifferential(t *testing.T) {
	raw := replayFixture(t)
	run := func(keep float64) []byte {
		sum, err := ReplayStream("swf-prune",
			workload.NewSWFStream(bytes.NewReader(raw), workload.SWFOptions{Seed: 4}),
			Baseline, nil, 4, Config{Trace: true, PruneKeep: keep})
		if err != nil {
			t.Fatal(err)
		}
		return sum.Trace
	}
	tight := run(0)              // default: 3 windows
	wide := run(100 * 24 * 3600) // effectively unpruned
	if !bytes.Equal(tight, wide) {
		t.Fatalf("retention width changed the schedule:\n%s", firstTraceDiff(tight, wide))
	}
}

// TestReplayHeapSampling checks the MemSample plumbing end to end: the
// gauges exist in the snapshot and the summary carries a peak.
func TestReplayHeapSampling(t *testing.T) {
	raw := replayFixture(t)
	sum, err := ReplayStream("swf-mem",
		workload.NewSWFStream(bytes.NewReader(raw), workload.SWFOptions{Seed: 1}),
		Baseline, nil, 1, Config{Metrics: true, MemSample: 60})
	if err != nil {
		t.Fatal(err)
	}
	if sum.PeakHeapBytes == 0 {
		t.Fatal("heap sampler never ran")
	}
	found := map[string]bool{}
	for _, g := range sum.Metrics.Gauges {
		found[g.Name] = true
	}
	if !found["sim_heap_inuse"] || !found["replay_peak_rss"] {
		t.Fatalf("memory gauges missing from snapshot: %+v", sum.Metrics.Gauges)
	}
}

// TestReplayCanaryPolicy exercises the gated path (no predictor needed)
// through the streaming driver and checks gate counters surface.
func TestReplayCanaryPolicy(t *testing.T) {
	raw := replayFixture(t)
	sum, err := ReplayStream("swf-canary",
		workload.NewSWFStream(bytes.NewReader(raw), workload.SWFOptions{Seed: 2}),
		Canary, nil, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.GateEvaluations == 0 {
		t.Fatal("canary gate never consulted")
	}
	if sum.Jobs != sum.Submitted {
		t.Fatalf("drain incomplete: %d/%d", sum.Jobs, sum.Submitted)
	}
}

// firstTraceDiff renders the first differing line of two JSONL traces.
func firstTraceDiff(a, b []byte) string {
	al := strings.Split(string(a), "\n")
	bl := strings.Split(string(b), "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n a: %s\n b: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("traces differ in length: %d vs %d lines", len(al), len(bl))
}
