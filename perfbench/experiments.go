package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync/atomic"
	"time"

	"rush/internal/core"
	"rush/internal/experiments"
	"rush/internal/mlkit"
	"rush/internal/obs"
	"rush/internal/workload"
)

// experimentsRunner runs the Table II experiments as paired
// FCFS+EASY/RUSH trials, with the predictor trained in set-up.
type experimentsRunner struct {
	full, pdpa *core.Predictor
	specs      []workload.Spec
	seed       int64
	subSeeds   int
	workers    int
}

func setupExperiments(e *env) (runner, error) {
	res, full, err := trainPredictor(e.PredictorDays)
	if err != nil {
		return nil, err
	}
	r := &experimentsRunner{full: full, seed: e.seed, subSeeds: e.SubSeeds, workers: e.workers}
	for _, name := range e.Specs {
		spec, err := workload.SpecByName(name)
		if err != nil {
			return nil, err
		}
		if len(spec.TrainApps) > 0 && r.pdpa == nil {
			if r.pdpa, err = core.TrainPredictor(res.JobScope, core.ModelAdaBoost, spec.TrainApps, predictorSeed); err != nil {
				return nil, err
			}
		}
		r.specs = append(r.specs, spec)
	}
	return r, nil
}

// iterate runs one experiment's paired trial. Iterations walk the specs
// for one trial seed, then the next seed, so a run's medians span every
// spec and several job streams.
func (r *experimentsRunner) iterate(i int, tr *trace, chk *checker) (float64, any, error) {
	spec := r.specs[i%len(r.specs)]
	sub := i / len(r.specs) % r.subSeeds
	pred := r.full
	if len(spec.TrainApps) > 0 {
		pred = r.pdpa
	}
	var timed *timedModel
	if tr != nil {
		pred, timed = withTimedModel(pred)
	}
	cfg := experiments.Config{Workers: r.workers, Metrics: tr != nil}
	t := time.Now()
	cmp, err := experiments.RunExperiment(spec, pred, 1, subSeed(r.seed, sub, r.subSeeds), cfg)
	if err != nil {
		return 0, nil, err
	}
	tr.span("experiments."+spec.Name+"_s", t)

	var jobs, basePassUS, rushPassUS, passes, events, evals, vetoes float64
	for _, trial := range []*experiments.Trial{cmp.Baseline[0], cmp.RUSH[0]} {
		chk.check(len(trial.Jobs) == spec.NumJobs && trial.FailedJobs == 0,
			"%s %s: %d of %d jobs done, %d failed", spec.Name, trial.Policy, len(trial.Jobs), spec.NumJobs, trial.FailedJobs)
		jobs += float64(len(trial.Jobs))
		if trial.Metrics != nil {
			wall := counter(trial.Metrics, "sched_pass_wall_us")
			if trial.Policy == experiments.RUSH {
				rushPassUS += wall
			} else {
				basePassUS += wall
			}
			passes += counter(trial.Metrics, "sched_passes_total")
			events += counter(trial.Metrics, "sim_events_fired_total")
		}
		evals += float64(trial.GateEvaluations)
		vetoes += float64(trial.GateVetoes)
		trial.Metrics, trial.Trace = nil, nil
	}

	if tr != nil {
		tr.add("sched.pass_s", (basePassUS+rushPassUS)/1e6)
		tr.add("sched.passes", passes)
		tr.add("sched.gate_evals", evals)
		tr.add("sched.gate_vetoes", vetoes)
		tr.add("sched.gate_us_per_eval", ratio(rushPassUS-basePassUS, evals))
		if timed != nil {
			tr.add("mlkit.predict_us_per_eval", ratio(float64(timed.nanos.Load())/1e3, float64(timed.calls.Load())))
		}
		tr.add("sim.events_fired", events)
	}
	return jobs, comparisonOutcome{spec: spec.Name, cmp: cmp}, nil
}

// comparisonOutcome is what an experiments iteration must reproduce: the
// Comparison, its metrics and trace left out. It encodes as an
// experimentsRecord, digesting the Comparison only when checked.
type comparisonOutcome struct {
	spec string
	cmp  *experiments.Comparison
}

// experimentsRecord is the recorded form of a comparisonOutcome.
type experimentsRecord struct {
	Spec   string
	Digest string
}

func (o comparisonOutcome) MarshalJSON() ([]byte, error) {
	d, err := digest(o.cmp)
	if err != nil {
		return nil, err
	}
	return json.Marshal(experimentsRecord{Spec: o.spec, Digest: d})
}

func (r *experimentsRunner) close() error { return nil }

// digest is a short SHA-256 of v's JSON encoding.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8]), nil
}

// counter reads one counter of a metrics snapshot (0 when absent).
func counter(s *obs.Snapshot, name string) float64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// timedModel times inference on a trained model. It implements every
// interface the RUSH gate type-asserts — Classifier, ProbaPredictor and
// FastProbaPredictor — by delegation, so the gate keeps its
// allocation-free path and its decisions; the output checks of the traced
// run confirm they do not change.
type timedModel struct {
	mlkit.FastProbaPredictor
	calls, nanos atomic.Int64
}

func (m *timedModel) observe(t time.Time) {
	m.nanos.Add(int64(time.Since(t)))
	m.calls.Add(1)
}

func (m *timedModel) Predict(sample []float64) int {
	defer m.observe(time.Now())
	return m.FastProbaPredictor.Predict(sample)
}

func (m *timedModel) PredictProba(sample []float64) []float64 {
	defer m.observe(time.Now())
	return m.FastProbaPredictor.PredictProba(sample)
}

func (m *timedModel) PredictProbaInto(sample, out []float64) int {
	defer m.observe(time.Now())
	return m.FastProbaPredictor.PredictProbaInto(sample, out)
}

// withTimedModel returns a copy of p whose model is wrapped in a
// timedModel, or p itself and nil when its model has no fast path to
// delegate to.
func withTimedModel(p *core.Predictor) (*core.Predictor, *timedModel) {
	fp, ok := p.Model.(mlkit.FastProbaPredictor)
	if !ok {
		return p, nil
	}
	m := &timedModel{FastProbaPredictor: fp}
	cp := *p
	cp.Model = m
	return &cp, m
}
