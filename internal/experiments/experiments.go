// Package experiments reproduces the paper's evaluation (Section VI): it
// runs Table II workloads on a 512-node pod with an all-to-all noise job
// on 1/16 of the nodes, under FCFS+EASY and under RUSH, for several
// paired trials, and computes the metrics behind every results figure —
// per-app variation counts (Figs 4, 5), run-time distributions (Figs 6-8),
// max-run-time improvement (Fig 9), makespan (Fig 10), and per-app wait
// times (Fig 11).
package experiments

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"

	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/core"
	"rush/internal/faults"
	"rush/internal/lifecycle"
	"rush/internal/machine"
	"rush/internal/mlkit"
	"rush/internal/obs"
	"rush/internal/parallel"
	"rush/internal/sched"
	"rush/internal/sim"
	"rush/internal/telemetry"
	"rush/internal/workload"
)

// Policy names the two compared schedulers.
type Policy string

// The scheduling policies of the evaluation. Baseline and RUSH are the
// paper's pair; Canary is the heuristic probe-threshold gate included as
// an extra comparison point.
const (
	Baseline Policy = "FCFS+EASY"
	RUSH     Policy = "RUSH"
	Canary   Policy = "Canary"
)

// Config controls the experiment environment.
type Config struct {
	// Topo is the reservation (default cluster.Pod512, as in the paper).
	Topo cluster.Topology
	// Noise configures the all-to-all noise job (default
	// apps.DefaultNoise).
	Noise apps.Noise
	// DelayOnLittle also delays jobs when the model predicts the
	// "little variation" class, not just "variation" (ablation knob).
	DelayOnLittle bool
	// AllNodesScope makes RUSH aggregate counters machine-wide instead
	// of over the job's tentative nodes (ablation knob).
	AllNodesScope bool
	// UseSJF replaces the FCFS main-queue and backfill orderings with
	// shortest-job-first — the paper notes RUSH composes with any static
	// queue-ordering policy (ablation knob).
	UseSJF bool
	// Backfill selects the backfilling discipline (default EASY, as in
	// the paper; NoBackfill and ConservativeBackfill are ablations).
	Backfill sched.BackfillMode
	// ProbThreshold switches the RUSH gate to the probability rule: jobs
	// are delayed when the model's variation-class probability mass
	// exceeds this value (0 keeps the paper's hard label rule).
	ProbThreshold float64
	// CanaryThreshold overrides the Canary policy's probe-slowdown
	// threshold (0 keeps its default; negative values are rejected).
	CanaryThreshold float64
	// CanaryAllClasses makes the Canary policy gate compute-intensive
	// jobs too, not just the network- and I/O-intensive classes.
	CanaryAllClasses bool
	// Lifecycle enables the online model lifecycle on RUSH trials:
	// drift detection over the gate's feature stream plus the
	// shadow/canary challenger registry (see internal/lifecycle). The
	// zero value is fully disabled and leaves RUSH trials bit-identical
	// to a build without the subsystem.
	Lifecycle lifecycle.Config
	// MaxSimTime aborts a trial that fails to drain (safety net;
	// default 6 hours of simulated time).
	MaxSimTime float64
	// Faults injects node failures, telemetry dropouts, and predictor
	// outages into the trial (robustness evaluation). The zero value
	// injects nothing and leaves clean runs bit-identical.
	Faults faults.Config
	// Workers bounds how many trials (and fault scenarios) execute
	// concurrently: 0 uses GOMAXPROCS, 1 forces the serial path. Each
	// trial is seeded independently and results merge in trial order, so
	// every worker count produces byte-identical output (pinned by
	// TestRunExperimentParallelDeterminism).
	Workers int

	// EngineWorkers bounds the goroutines the machine may use to fan out
	// slowdown recomputation inside one trial when a contention change
	// touches many jobs (see machine.Machine.Workers). 0 or 1 keeps the
	// engine serial; any value produces bit-identical trials. It is
	// separate from Workers because trial-level and intra-trial
	// parallelism multiply.
	EngineWorkers int

	// PruneInterval and PruneKeep control the machine's telemetry-history
	// retention: every PruneInterval simulated seconds, load epochs and
	// cached sample rows older than PruneKeep are dropped. The defaults
	// (one telemetry window, keeping three) cover every consumer's widest
	// lookback with slack; long-horizon replays depend on this rolling
	// window to hold state bounded over a simulated year. Retention wider
	// than the default never changes a schedule — consumers only read the
	// last window — which the pruning differential in replay_test pins.
	PruneInterval float64
	PruneKeep     float64

	// MemSample, when positive, samples the Go runtime heap every
	// MemSample simulated seconds into the metrics registry: the
	// sim_heap_inuse gauge holds the latest live-heap sample and
	// replay_peak_rss the high-water mark of the runtime's total memory
	// footprint; the live-heap high-water mark also lands in
	// ReplaySummary.PeakHeapBytes. Sampling draws no randomness and
	// mutates no simulation state, but it does occupy event-queue slots,
	// so compare traces only across runs with the same MemSample setting.
	MemSample float64

	// ReplaySlowdown is the slowdown (realized run time over
	// contention-free base work) at or above which a replayed job counts
	// as high-variation in ReplaySummary (default 1.5). The paper's
	// z-score definition needs the full per-app run-time distribution;
	// a fixed slowdown threshold is the one-pass analogue a streaming
	// replay can afford.
	ReplaySlowdown float64

	// Trace records each trial's structured event stream (JSONL) into
	// Trial.Trace. Events are keyed by simulated time and buffered
	// per-trial, so traces are byte-identical at any worker count and
	// enabling them changes no scheduling decision (pinned by
	// TestTracingDoesNotPerturbScheduling).
	Trace bool
	// Metrics maintains a per-trial metrics registry (scheduler, gate,
	// breaker, fault, and engine counters plus wait/run histograms),
	// snapshotted into Trial.Metrics and rendered by ReportMetrics.
	Metrics bool

	// schedReference and engineReference route every scheduling pass
	// through the scheduler's reference scanner (see
	// sched.Config.DisableFastPath) and every contention change through
	// the machine's serial full-recompute executor (see
	// machine.Machine.DisableFastPath). Both oracles yield bit-identical
	// trials; the selectors exist for this package's differential tests
	// and engine benchmark, not as options.
	schedReference, engineReference bool
}

func (c *Config) fill() {
	if c.Topo.Nodes == 0 {
		c.Topo = cluster.Pod512()
	}
	if c.Noise == (apps.Noise{}) {
		c.Noise = apps.DefaultNoise()
	}
	if c.MaxSimTime <= 0 {
		c.MaxSimTime = 6 * 3600
	}
	if c.PruneInterval <= 0 {
		c.PruneInterval = telemetry.WindowSeconds
	}
	if c.PruneKeep <= 0 {
		c.PruneKeep = 3 * telemetry.WindowSeconds
	}
	if c.ReplaySlowdown <= 0 {
		c.ReplaySlowdown = 1.5
	}
}

// JobRecord is one job's outcome within a trial.
type JobRecord struct {
	ID        int
	App       string
	Nodes     int
	Submit    float64
	Start     float64
	End       float64
	Wait      float64
	RunTime   float64
	Skips     int
	Immediate bool // submitted at t=0 (Fig 11 excludes these)

	// Retries counts node-failure kills the job survived; LostWork is
	// the execution time those kills discarded; Failed marks a job that
	// exhausted its retry budget and never finished.
	Retries  int
	LostWork float64
	Failed   bool
}

// jobRecord captures a finished job's outcome.
func jobRecord(j *sched.Job) JobRecord {
	return JobRecord{
		ID: j.ID, App: j.App.Name, Nodes: j.Nodes,
		Submit: j.SubmitTime, Start: j.StartTime, End: j.EndTime,
		Wait: j.WaitTime(), RunTime: j.RunTime(), Skips: j.Skips,
		Immediate: j.SubmitTime == 0,
		Retries:   j.Retries, LostWork: j.LostWork, Failed: j.Failed,
	}
}

// Trial is one full workload execution under one policy. Besides the
// per-job records it carries the outcome fields it shares with
// ReplaySummary: Makespan, the RUSH or Canary gate counters, the
// fault-injection and model-lifecycle outcomes, and the Trace and
// Metrics captures.
type Trial struct {
	Experiment string
	Policy     Policy
	Seed       int64
	// TopoNodes is the node count of the topology the trial ran on;
	// utilization denominators derive from it, not from an assumed
	// reservation size.
	TopoNodes int
	Jobs      []JobRecord
	outcome
}

// outcome is the part of a run's result that Trial and ReplaySummary
// share. drive fills it: the completion fields as jobs finish, the rest
// in one harvest after the drain. The field order and tags are Trial's
// JSON layout.
type outcome struct {
	// Makespan is the duration from first submission to last completion.
	Makespan float64
	// GateEvaluations / GateVetoes / ThresholdOverrides report RUSH gate
	// activity (zero under the baseline).
	GateEvaluations    int
	GateVetoes         int
	ThresholdOverrides int

	// Fault-injection outcomes (all zero in clean runs).
	NodeFailures int
	NodeRepairs  int
	JobKills     int
	FailedJobs   int
	LostWork     float64
	// GateDegraded counts gate decisions that failed open; BreakerTrips
	// and DegradedTime describe the predictor circuit breaker.
	GateDegraded int
	BreakerTrips int
	DegradedTime float64

	// Model-lifecycle outcomes (all zero unless Config.Lifecycle is
	// enabled on a RUSH trial). FirstDriftAt is the simulated time of
	// the first drift detection, -1 when none fired.
	DriftDetections   int     `json:",omitempty"`
	FirstDriftAt      float64 `json:",omitempty"`
	Retrains          int     `json:",omitempty"`
	Promotions        int     `json:",omitempty"`
	Rollbacks         int     `json:",omitempty"`
	ShadowPredictions int     `json:",omitempty"`
	CanaryActed       int     `json:",omitempty"`

	// Trace is the JSONL event stream (nil unless Config.Trace).
	Trace []byte `json:",omitempty"`
	// Metrics is the metrics snapshot (nil unless Config.Metrics).
	Metrics *obs.Snapshot `json:",omitempty"`
}

// complete folds one finished job into the completion fields.
func (o *outcome) complete(j *sched.Job) {
	o.LostWork += j.LostWork
	if j.EndTime > o.Makespan {
		o.Makespan = j.EndTime // first submission is at t = 0
	}
	if j.Failed {
		o.FailedJobs++
	}
}

// RunTrial executes spec once under the given policy. The same seed
// yields the same workload and noise trace for both policies, making
// baseline/RUSH comparisons paired.
func RunTrial(spec workload.Spec, policy Policy, pred *core.Predictor, seed int64, cfg Config) (*Trial, error) {
	jobs, err := workload.Generate(spec, seed)
	if err != nil {
		return nil, err
	}
	return RunTrialJobs(spec.Name, jobs, policy, pred, seed, cfg)
}

// trialEnv is one trial's fully wired simulation environment — engine,
// observation channels, machine, fault injector, gate, and scheduler.
// Construction order is load-bearing: every random stream derives from
// the engine seed in the order components attach, so every run of one
// seed assembles an identical environment by running this one function.
type trialEnv struct {
	eng        *sim.Engine
	traceBuf   *bytes.Buffer
	tracer     *obs.Tracer
	reg        *obs.Registry
	observer   *obs.Observer
	m          *machine.Machine
	noise      *machine.Noise
	inj        *faults.Injector
	rushGate   *sched.RUSH
	canaryGate *sched.Canary
	lcm        *lifecycle.Manager
	s          *sched.Scheduler
	peakHeap   uint64
}

// newTrialEnv assembles the environment. cfg must already be filled.
func newTrialEnv(name string, policy Policy, pred *core.Predictor, seed int64, cfg Config) (*trialEnv, error) {
	eng := sim.New(seed)

	// Per-trial observation channels. Buffering the trace in memory (and
	// keying events by simulated time only) is what makes traces
	// byte-identical at any worker count: each trial owns its buffer and
	// the caller concatenates them in trial order.
	var traceBuf *bytes.Buffer
	var tracer *obs.Tracer
	if cfg.Trace {
		traceBuf = &bytes.Buffer{}
		tracer = obs.NewBatchedTracer(traceBuf)
	}
	var reg *obs.Registry
	if cfg.Metrics {
		reg = obs.NewRegistry()
		eng.Instrument(reg.Counter("sim_events_scheduled_total"), reg.Counter("sim_events_fired_total"))
	}
	observer := obs.New(tracer, reg)
	observer.Emit(obs.Event{Time: 0, Kind: obs.KindTrial, Experiment: name, Policy: string(policy), Seed: seed})

	m, err := machine.New(eng, cfg.Topo)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	m.DisableFastPath = cfg.engineReference
	m.Workers = cfg.EngineWorkers
	// Trials never hand *RunningJob to callers, so job-state pooling is
	// always safe here and keeps machine-scale churn allocation-bounded.
	m.PoolJobs = true
	noise, err := m.StartNoise(cfg.Noise)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	inj, err := faults.Attach(m, cfg.Faults, eng.Source().Derive("faults"))
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	// Bound the trial's memory: periodically drop load epochs and cached
	// sample rows older than every consumer's widest lookback (the gate
	// aggregates one window and tolerates up to MaxStaleness of frozen
	// history; the default of triple the window covers both with slack).
	m.StartPruning(cfg.PruneInterval, cfg.PruneKeep)

	env := &trialEnv{
		eng: eng, traceBuf: traceBuf, tracer: tracer, reg: reg,
		observer: observer, m: m, noise: noise, inj: inj,
	}

	var gate sched.Gate = sched.AlwaysStart{}
	switch policy {
	case RUSH:
		if pred == nil || pred.Model == nil {
			return nil, fmt.Errorf("experiments: RUSH policy requires a trained predictor")
		}
		rushGate := sched.NewRUSH(m, pred.Model)
		rushGate.AllNodesScope = cfg.AllNodesScope
		rushGate.ProbThreshold = cfg.ProbThreshold
		rushGate.ModelDown = inj.ModelDown()
		if cfg.DelayOnLittle {
			rushGate.VariationLabels[1] = true // dataset.LabelLittle
		}
		modelName, modelSeed := pred.ModelName, seed
		lcm, err := lifecycle.New(cfg.Lifecycle, lifecycle.Deps{
			Host:            rushGate,
			Now:             eng.Now,
			Stats:           pred.Stats,
			Reference:       pred.Reference,
			NewModel:        func(s int64) (mlkit.Classifier, error) { return core.NewModel(modelName, modelSeed+s) },
			VariationLabels: rushGate.VariationLabels,
			Observer:        observer,
			Hash:            eng.Source().Derive("lifecycle"),
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		if lcm != nil {
			rushGate.Hook = lcm
		}
		env.rushGate, env.lcm = rushGate, lcm
		gate = rushGate
	case Canary:
		canaryGate := sched.NewCanary(m)
		if cfg.CanaryThreshold != 0 {
			if cfg.CanaryThreshold < 0 {
				return nil, fmt.Errorf("experiments: canary threshold must be positive, got %v", cfg.CanaryThreshold)
			}
			canaryGate.SlowdownThreshold = cfg.CanaryThreshold
		}
		canaryGate.AllClasses = cfg.CanaryAllClasses
		env.canaryGate = canaryGate
		gate = canaryGate
	}
	var r1, r2 sched.Policy = sched.FCFS{}, sched.FCFS{}
	if cfg.UseSJF {
		r1, r2 = sched.SJF{}, sched.SJF{}
	}
	s, err := sched.NewScheduler(sched.Config{
		Machine: m, Primary: r1, Backfill: r2, Gate: gate,
		Mode: cfg.Backfill, Observer: observer, Faults: inj,
		DisableFastPath: cfg.schedReference,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	if env.lcm != nil {
		s.OnComplete = env.lcm.JobCompleted
	}
	env.s = s

	// The heap sampler rides the event queue: cheap, deterministic in
	// simulated time, and off unless asked for.
	if cfg.MemSample > 0 {
		heapGauge := reg.Gauge("sim_heap_inuse")
		rssGauge := reg.Gauge("replay_peak_rss")
		var sample func()
		sample = func() {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heapGauge.Set(float64(ms.HeapInuse))
			rssGauge.Max(float64(ms.Sys))
			if ms.HeapInuse > env.peakHeap {
				env.peakHeap = ms.HeapInuse
			}
			eng.ScheduleOnce(cfg.MemSample, sample)
		}
		eng.ScheduleOnce(cfg.MemSample, sample)
	}
	return env, nil
}

// RunTrialJobs executes an arbitrary job list (e.g. one replayed from
// an SWF trace via workload.FromSWF) under the given policy. The jobs
// need not be in submit order: a stable sort of a copy orders them by
// SubmitAt, keeping equal submit times in slice order, and the caller's
// slice is left untouched.
func RunTrialJobs(name string, jobs []workload.SubmittedJob, policy Policy, pred *core.Predictor, seed int64, cfg Config) (*Trial, error) {
	cfg.fill()
	sorted := append([]workload.SubmittedJob(nil), jobs...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].SubmitAt < sorted[b].SubmitAt })

	tr := &Trial{Experiment: name, Policy: policy, Seed: seed, TopoNodes: cfg.Topo.Nodes}
	_, _, err := drive(name, workload.NewSliceStream(sorted), policy, pred, seed, cfg, &tr.outcome, func(j *sched.Job) {
		tr.Jobs = append(tr.Jobs, jobRecord(j))
	})
	if err != nil {
		return nil, err
	}
	for _, r := range tr.Jobs {
		if !r.Failed && (math.IsNaN(r.RunTime) || r.RunTime <= 0) {
			return nil, fmt.Errorf("experiments: job %d has invalid run time", r.ID)
		}
	}
	return tr, nil
}

// drive is the one trial driver behind RunTrialJobs and ReplayStream.
// It assembles the environment, feeds stream into the scheduler, drains
// the simulation until the stream is exhausted and every submitted job
// has completed, and fills out. Finished jobs are not retained: each is
// handed to the lifecycle hook (if any), folded into out, and passed to
// onComplete, in completion order. drive returns the number of jobs
// submitted and the peak heap the MemSample sampler saw. cfg must
// already be filled.
//
// Determinism: the feeder is one front-band event (sim.Engine.AtFront)
// re-armed to each next submit time, so submissions at time t fire ahead
// of simulation events queued earlier for the same t — the order of one
// submit event per job pre-queued before the run, which is what the
// eager-order differential in replay_test.go pins. Feeding the same
// stream contents therefore yields bit-identical traces whether the jobs
// come from disk, gzip, or a slice.
func drive(name string, stream workload.JobStream, policy Policy, pred *core.Predictor, seed int64, cfg Config,
	out *outcome, onComplete func(*sched.Job)) (submitted int, peakHeap uint64, err error) {
	env, err := newTrialEnv(name, policy, pred, seed, cfg)
	if err != nil {
		return 0, 0, err
	}
	eng, s := env.eng, env.s
	s.DiscardCompleted = true
	lifecycleHook := s.OnComplete
	s.OnComplete = func(j *sched.Job) {
		if lifecycleHook != nil {
			lifecycleHook(j)
		}
		out.complete(j)
		onComplete(j)
	}

	next, ok, err := stream.Next()
	if err != nil {
		return 0, 0, fmt.Errorf("experiments: replay: %w", err)
	}
	var feedErr error
	if ok {
		var feeder *sim.Event
		feed := func() {
			now := eng.Now()
			for ok && next.SubmitAt <= now {
				if serr := s.Submit(next.Job); serr != nil {
					feedErr = fmt.Errorf("experiments: %w", serr)
					return
				}
				submitted++
				if next, ok, err = stream.Next(); err != nil {
					feedErr = fmt.Errorf("experiments: replay: %w", err)
					return
				}
			}
			if ok {
				eng.Rearm(feeder, next.SubmitAt)
			}
		}
		feeder = eng.AtFront(next.SubmitAt, feed)
	}

	// The noise job schedules phase events forever, so the queue itself
	// never empties on a healthy run: step until the work is done.
	for feedErr == nil && (ok || s.CompletedCount() < submitted) {
		if eng.Now() > cfg.MaxSimTime {
			return 0, 0, fmt.Errorf("experiments: trial exceeded %v simulated seconds (%d/%d jobs done)",
				cfg.MaxSimTime, s.CompletedCount(), submitted)
		}
		if !eng.Step() {
			return 0, 0, fmt.Errorf("experiments: event queue drained with %d/%d jobs incomplete",
				s.CompletedCount(), submitted)
		}
	}
	if feedErr != nil {
		return 0, 0, feedErr
	}
	return submitted, env.peakHeap, env.harvest(out)
}

// harvest stops the noise job, surfaces the scheduler's sticky error,
// and copies the environment's gate, fault, and lifecycle counters and
// its trace and metrics captures into out. It runs once, after the
// drain.
func (env *trialEnv) harvest(out *outcome) error {
	env.noise.Stop()
	if err := env.s.Err(); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	out.NodeFailures = env.inj.NodeFailures
	out.NodeRepairs = env.inj.NodeRepairs
	out.JobKills = env.inj.JobKills
	if g := env.rushGate; g != nil {
		out.GateEvaluations = g.Evaluations
		out.GateVetoes = g.Vetoes
		out.ThresholdOverrides = g.ThresholdOverrides
		out.GateDegraded = g.Degraded
		out.DegradedTime = g.DegradedTime()
		if g.Breaker != nil {
			out.BreakerTrips = g.Breaker.Trips
		}
	}
	if g := env.canaryGate; g != nil {
		out.GateEvaluations = g.Evaluations
		out.GateVetoes = g.Vetoes
		out.ThresholdOverrides = g.ThresholdOverrides
	}
	if lcm := env.lcm; lcm != nil {
		out.DriftDetections = lcm.DriftDetections
		out.FirstDriftAt = lcm.FirstDriftAt
		out.Retrains = lcm.Retrains
		out.Promotions = lcm.Promotions
		out.Rollbacks = lcm.Rollbacks
		out.ShadowPredictions = lcm.ShadowDecisions
		out.CanaryActed = lcm.CanaryActed
	}
	if env.traceBuf != nil {
		if err := env.tracer.Flush(); err != nil {
			return fmt.Errorf("experiments: trace: %w", err)
		}
		out.Trace = env.traceBuf.Bytes()
	}
	if env.reg != nil {
		out.Metrics = env.reg.Snapshot()
	}
	return nil
}

// Comparison holds the paired trials of one experiment.
type Comparison struct {
	Experiment string
	Spec       workload.Spec
	Baseline   []*Trial
	RUSH       []*Trial
}

// DefaultTrials is the paper's per-policy repetition count.
const DefaultTrials = 5

// FaultScenario names one fault configuration of a robustness sweep.
type FaultScenario struct {
	Name   string
	Faults faults.Config
}

// DefaultFaultScenarios is the standard robustness sweep: a clean run,
// then each fault class alone, then everything at once.
func DefaultFaultScenarios() []FaultScenario {
	return []FaultScenario{
		{Name: "clean"},
		{Name: "node-churn", Faults: faults.Config{NodeMTBF: 4 * 3600, NodeMTTR: 900}},
		{Name: "telemetry-loss", Faults: faults.Config{TelemetryLoss: 0.2, FreezeProb: 0.05}},
		{Name: "model-outage", Faults: faults.Config{ModelOutage: 0.3}},
		{Name: "all-faults", Faults: faults.Config{
			NodeMTBF: 4 * 3600, NodeMTTR: 900,
			TelemetryLoss: 0.2, FreezeProb: 0.05,
			ModelOutage: 0.3,
		}},
	}
}

// FaultRow is one scenario's paired baseline/RUSH comparison.
type FaultRow struct {
	Scenario FaultScenario
	Cmp      *Comparison
}

// FaultMatrix runs spec under every fault scenario, paired baseline vs
// RUSH with seeds baseSeed+i, and returns one row per scenario. It is
// the robustness counterpart of RunExperiment: the same workload and
// seeds across rows, so differences between rows are the faults' doing.
// Scenarios execute concurrently under cfg.Workers; rows come back in
// scenario order regardless of which finishes first.
func FaultMatrix(spec workload.Spec, pred *core.Predictor, scenarios []FaultScenario, trials int, baseSeed int64, cfg Config) ([]FaultRow, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("experiments: %s fault matrix: trials must be positive, got %d", spec.Name, trials)
	}
	if len(scenarios) == 0 {
		scenarios = DefaultFaultScenarios()
	}
	rows, err := parallel.Map(nil, cfg.Workers, len(scenarios), func(s int) (FaultRow, error) {
		scCfg := cfg
		scCfg.Faults = scenarios[s].Faults
		// The inner experiment keeps cfg.Workers: the nested pools bound
		// goroutines, not threads, so a matrix with fewer scenarios than
		// cores still fills the machine with its scenarios' trials.
		cmp, err := RunExperiment(spec, pred, trials, baseSeed, scCfg)
		if err != nil {
			return FaultRow{}, fmt.Errorf("experiments: fault scenario %q: %w", scenarios[s].Name, err)
		}
		return FaultRow{Scenario: scenarios[s], Cmp: cmp}, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RunExperiment runs spec trials times under each policy with paired
// seeds (baseSeed+i) and returns the comparison. Trials execute
// concurrently under cfg.Workers; because every trial derives all of
// its randomness from its own seed and results slot into trial order,
// the comparison is byte-identical at any worker count. trials must be
// positive (pass DefaultTrials for the paper's count).
func RunExperiment(spec workload.Spec, pred *core.Predictor, trials int, baseSeed int64, cfg Config) (*Comparison, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("experiments: %s: trials must be positive, got %d", spec.Name, trials)
	}
	cmp := &Comparison{
		Experiment: spec.Name, Spec: spec,
		Baseline: make([]*Trial, trials),
		RUSH:     make([]*Trial, trials),
	}
	// Task 2i is baseline trial i, task 2i+1 its paired RUSH trial, so
	// the lowest-index error the pool reports is the same one the old
	// serial baseline-then-RUSH loop would have hit first.
	err := parallel.Run(nil, cfg.Workers, 2*trials, func(k int) error {
		i, seed := k/2, baseSeed+int64(k/2)
		if k%2 == 0 {
			b, err := RunTrial(spec, Baseline, pred, seed, cfg)
			if err != nil {
				return fmt.Errorf("experiments: %s baseline trial %d: %w", spec.Name, i, err)
			}
			cmp.Baseline[i] = b
			return nil
		}
		r, err := RunTrial(spec, RUSH, pred, seed, cfg)
		if err != nil {
			return fmt.Errorf("experiments: %s RUSH trial %d: %w", spec.Name, i, err)
		}
		cmp.RUSH[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cmp, nil
}
