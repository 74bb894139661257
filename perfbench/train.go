package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"rush/internal/core"
	"rush/internal/dataset"
	"rush/internal/obs"
	"rush/internal/workload"
)

// trainRunner is the front half of rush-experiments, shortened: collect a
// campaign with the incident, compare the four models on both scopes
// (Figure 3), and train the deployed and the PDPA predictor.
type trainRunner struct {
	days     int
	seed     int64
	subSeeds int
}

// setupTrain warms up on a shorter, fixed campaign through the same
// stages, so the first timed iteration does not pay for cold code and
// heap growth.
func setupTrain(e *env) (runner, error) {
	if _, _, err := trainPass(e.WarmDays, predictorSeed, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return &trainRunner{days: e.TrainDays, seed: e.seed, subSeeds: e.SubSeeds}, nil
}

func (r *trainRunner) iterate(i int, tr *trace, chk *checker) (float64, any, error) {
	out, samples, err := trainPass(r.days, subSeed(r.seed, i%r.subSeeds, r.subSeeds), tr)
	if err != nil {
		return 0, nil, err
	}
	for key, f1 := range out.F1 {
		chk.check(f1 >= 0 && f1 <= 1, "F1 %s = %v out of [0,1]", key, f1)
	}
	return float64(samples), out, nil
}

func (r *trainRunner) close() error { return nil }

// trainOutcome is what a train iteration must reproduce for its seed. It
// encodes as a trainRecord, saving and hashing the predictors only when
// checked.
type trainOutcome struct {
	// F1 is the Figure 3 cross-validated F1, keyed "<model>/<scope>".
	F1         map[string]float64
	full, pdpa *core.Predictor
}

// trainRecord is the recorded form of a trainOutcome.
type trainRecord struct {
	F1 map[string]float64
	// FullSHA256 and PDPASHA256 hash the two predictors' saved form.
	FullSHA256 string
	PDPASHA256 string
}

func (o trainOutcome) MarshalJSON() ([]byte, error) {
	rec := trainRecord{F1: o.F1}
	for _, p := range []struct {
		pred *core.Predictor
		sum  *string
	}{{o.full, &rec.FullSHA256}, {o.pdpa, &rec.PDPASHA256}} {
		saved, err := p.pred.Save()
		if err != nil {
			return nil, err
		}
		h := sha256.Sum256(saved)
		*p.sum = hex.EncodeToString(h[:])
	}
	return json.Marshal(rec)
}

// trainPass runs the stages once and returns the outcome and the number
// of collected samples (the work units of ops_per_s).
func trainPass(days int, seed int64, tr *trace) (trainOutcome, int, error) {
	out := trainOutcome{F1: map[string]float64{}}
	t := time.Now()
	res, err := core.Collect(core.CollectConfig{Days: days, Seed: seed, Incident: true})
	if err != nil {
		return out, 0, err
	}
	tr.span("core.collect_s", t)
	tr.add("dataset.samples", float64(res.JobScope.Len()))

	t = time.Now()
	for _, scope := range []struct {
		name string
		ds   *dataset.Dataset
	}{{"job-nodes", res.JobScope}, {"all-nodes", res.AllScope}} {
		scores, err := core.CompareModels(scope.ds, scope.name, seed)
		if err != nil {
			return out, 0, err
		}
		for _, s := range scores {
			out.F1[string(s.Model)+"/"+s.Scope] = s.F1
		}
	}
	tr.span("core.compare_s", t)

	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
	}
	pdpa, err := workload.SpecByName("PDPA")
	if err != nil {
		return out, 0, err
	}
	for _, p := range []struct {
		apps []string
		pred **core.Predictor
	}{{nil, &out.full}, {pdpa.TrainApps, &out.pdpa}} {
		if *p.pred, err = core.TrainPredictorObserved(res.JobScope, core.ModelAdaBoost, p.apps, seed, reg); err != nil {
			return out, 0, err
		}
	}
	if reg != nil {
		tr.add("core.train_cv_s", float64(reg.Counter("train_cv_wall_us").Value())/1e6)
		tr.add("core.train_fit_s", float64(reg.Counter("train_fit_wall_us").Value())/1e6)
		tr.add("mlkit.fit_calls", float64(reg.Counter("train_fit_calls").Value()))
		tr.add("mlkit.nodes_grown", float64(reg.Counter("train_nodes_grown").Value()))
	}
	return out, res.JobScope.Len(), nil
}
