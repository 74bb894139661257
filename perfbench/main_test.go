package main

import (
	"encoding/json"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
)

// tinySizes shrink every workload to about a second per iteration.
var tinySizes = sizes{
	TrainDays:     3,
	WarmDays:      3,
	PredictorDays: 6,
	Specs:         []string{"ADPA", "PDPA"},
	SubSeeds:      2,
	ReplayDays:    1,
}

func tinyEnv(t *testing.T) *env {
	return &env{sizes: tinySizes, seed: 3, workers: 2, dir: t.TempDir()}
}

// TestSmokeEveryWorkload runs every workload at tiny size, timed and
// traced, and checks that each prints exactly its declared metrics and
// passes its output checks.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res, err := bench(name, workloads[name], tinyEnv(t), 0.01, traced, nil, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := e2eMetrics
			if traced {
				want = layerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.Name, v, m.Unit)
				}
			}
		}
	}
}

// TestCorruptedGoldenFails records each workload's outputs, then checks
// that the recorded outputs pass and a corrupted copy makes the run fail.
func TestCorruptedGoldenFails(t *testing.T) {
	corrupt := map[string]func(b []byte) []byte{
		"train": func(b []byte) []byte { // flip a digit of a predictor hash
			var o trainRecord
			mustUnmarshal(t, b, &o)
			o.FullSHA256 = flipHex(o.FullSHA256)
			return mustMarshal(t, o)
		},
		"experiments": func(b []byte) []byte { // flip a digit of a comparison digest
			var o experimentsRecord
			mustUnmarshal(t, b, &o)
			o.Digest = flipHex(o.Digest)
			return mustMarshal(t, o)
		},
		"replay": func(b []byte) []byte {
			var o replayOutcome
			mustUnmarshal(t, b, &o)
			o.Jobs++
			return mustMarshal(t, o)
		},
	}
	for name, mutate := range corrupt {
		w := workloads[name]
		e := tinyEnv(t)
		r, err := w.setup(e)
		if err != nil {
			t.Fatal(err)
		}
		chk := newChecker(nil)
		n := w.subs(e.sizes)
		for i := 0; i < n; i++ {
			_, outcome, err := r.iterate(i, nil, chk)
			if err != nil {
				t.Fatal(err)
			}
			chk.outcome(i, outcome)
		}
		r.close()
		var golden []json.RawMessage
		for i := 0; i < n; i++ {
			golden = append(golden, chk.first[i])
		}
		if res, err := bench(name, w, tinyEnv(t), 0.01, false, golden, io.Discard); err != nil || !res.Correct {
			t.Fatalf("%s: recorded outputs: err=%v result=%+v", name, err, res)
		}
		golden[0] = mutate(golden[0])
		res, err := bench(name, w, tinyEnv(t), 0.01, false, golden, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted recorded output went unnoticed: %+v", name, res)
		}
	}
}

func flipHex(s string) string {
	last := s[len(s)-1]
	repl := "0"
	if last == '0' {
		repl = "1"
	}
	return s[:len(s)-1] + repl
}

func mustUnmarshal(t *testing.T, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatal(err)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricsMatchBenchmarkJSON pins BENCHMARK.json to what the
// benchmark prints: the same workloads, and the same metric names, units
// and directions in the same order.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark has %s", got, want)
	}
	var e2e []metricDef
	var setupBound, maxBound float64
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for _, c := range []struct {
		what      string
		got, want []metricDef
	}{{"end_to_end", e2e, e2eMetrics}, {"per_layer", spec.PerLayer, layerMetrics}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, benchmark prints %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", c.what, i, c.got[i], c.want[i])
			}
		}
	}
}

// TestGoldenCoversInputSets checks that golden.json records every
// sub-seed of every input set of each recorded workload, so no seed runs
// unchecked.
func TestGoldenCoversInputSets(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		w := workloads[name]
		if !w.recorded {
			continue
		}
		for set := int64(0); set < inputSets; set++ {
			if got, want := len(golden[name][strconv.FormatInt(set, 10)]), w.subs(fullSizes); got != want {
				t.Errorf("%s input set %d: %d recorded outcomes, want %d", name, set, got, want)
			}
		}
	}
	for _, seed := range []int64{-1, 0, 20, 21, 1 << 40} {
		if s := inputSet(seed); s < 0 || s >= inputSets {
			t.Errorf("inputSet(%d) = %d", seed, s)
		}
	}
}

// TestByInput checks the per-iteration reduction: the lower quartile of
// each input's repetitions, then the median over inputs.
func TestByInput(t *testing.T) {
	for _, c := range []struct {
		xs    []float64
		cycle int
		want  float64
	}{
		{[]float64{5}, 1, 5},
		{[]float64{3, 1, 2}, 3, 2}, // each input once: the plain median
		{[]float64{9, 1, 2, 3, 8, 7, 6, 5}, 1, 2},
		// input 0 ran 1, 3, 9 and input 1 ran 4, 6: quartiles 1 and 4
		{[]float64{1, 4, 3, 6, 9}, 2, 2.5},
	} {
		if got := byInput(c.xs, c.cycle); got != c.want {
			t.Errorf("byInput(%v, %d) = %v, want %v", c.xs, c.cycle, got, c.want)
		}
	}
}
