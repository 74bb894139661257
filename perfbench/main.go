// Command perfbench is the repository benchmark for the RUSH pipeline.
//
// It runs one workload — train, experiments, replay or serve — through the
// repository's packages inside a single process, for a fixed number of
// seconds, checks the workload's outputs, and prints every metric by name
// and unit. The last line of standard output is a JSON summary:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With --trace 0 (the timed run) the metrics are the end-to-end ones and no
// observer, metrics registry, tracer, wrapper or profiler is attached. With
// --trace 1 (the traced run) the same workload runs untraced for half the
// time and traced for the other half, and the metrics attribute the traced
// time to the repository's modules. README.md defines every metric and the
// workload each one is predicted to move.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload experiments --seed 3 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sizes fixes how much work one iteration of each workload does.
type sizes struct {
	// TrainDays is the collection campaign of one train iteration.
	TrainDays int
	// WarmDays is the shorter campaign the train set-up warms up with.
	WarmDays int
	// PredictorDays is the campaign behind the predictor that the
	// experiments and serve set-ups train.
	PredictorDays int
	// Specs are the Table II experiments the experiments workload walks
	// through, one paired trial per iteration.
	Specs []string
	// SubSeeds is how many distinct inputs train and experiments
	// iterations cycle through (see subSeed), so one run's medians span
	// several campaigns or job streams rather than hinging on one.
	SubSeeds int
	// ReplayDays is the horizon of the replayed SWF trace.
	ReplayDays float64
}

// fullSizes are the sizes the benchmark runs at. On a 2-vCPU host one
// iteration takes roughly 2 s (train), 0.3 s (experiments: one spec),
// 0.35 s (replay) and 0.1 s (serve), so a whole input cycle takes about
// 16 s (train: 8 iterations), 13 s (experiments: 40), 0.35 s (replay: 1)
// and 0.1 s (serve: 1). Replay's horizon is kept short so that a run
// repeats its trace some 25 times (see byInput).
var fullSizes = sizes{
	TrainDays:     5,
	WarmDays:      3,
	PredictorDays: 20,
	Specs:         []string{"ADAA", "ADPA", "PDPA", "WS", "SS"},
	SubSeeds:      8,
	ReplayDays:    20,
}

// inputSets is how many distinct input sets the benchmark has: --seed
// selects set seed mod inputSets, and golden.json records the outputs of
// every set, so every run is checked against recorded outputs.
const inputSets = 21

// inputSet maps a --seed to its input set.
func inputSet(seed int64) int64 { return (seed%inputSets + inputSets) % inputSets }

// subSeed is the input seed of iteration sub (0 <= sub < n) of a run with
// seed seed: runs with different seeds never share an input.
func subSeed(seed int64, sub, n int) int64 { return seed*int64(n) + int64(sub) }

// A run sets its workload up at least setupReps times, and until
// setupSeconds have passed, so a set-up of tens of milliseconds is timed
// often enough for a steady median; setup_s is the median.
const (
	setupReps    = 3
	setupSeconds = 1.0
)

// predictorSeed seeds the campaign and training behind the experiments
// and serve predictor, and the train set-up's warm-up. The deployed model
// is a fixed input of those workloads, as a site's trained model is;
// --seed varies the jobs, noise and requests it judges.
const predictorSeed = 1

// env is what a workload set-up receives.
type env struct {
	sizes
	seed    int64
	workers int
	// dir is the run's scratch directory inside the checkout.
	dir string
	// setups counts set-ups so far, to name per-set-up files.
	setups int
}

// runner is one set-up workload instance.
type runner interface {
	// iterate runs iteration i and returns the work units it completed
	// (the numerator of the printed throughput) and its outcome, which
	// the caller encodes and checks against the recorded one after the
	// iteration's clock stops (nil when the workload checks inline).
	// When tr is non-nil the iteration is traced: registries and timing
	// wrappers are attached and their readings added to tr. Inline
	// output checks go to chk.
	iterate(i int, tr *trace, chk *checker) (ops float64, outcome any, err error)
	close() error
}

// reporter is implemented by runners with workload-specific end-to-end
// figures beyond the shared metric set.
type reporter interface {
	report(w io.Writer)
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	setup func(e *env) (runner, error)
	// unit names the work units iterate returns, and rate the printed
	// throughput line.
	unit, rate string
	// subs is how many iterations one cycle through a seed's inputs
	// takes; iteration i has outcome i mod subs. A measured phase always
	// ends at a whole cycle, so any two phases weigh the inputs alike.
	subs func(sz sizes) int
	// recorded is whether golden.json holds the workload's outcomes;
	// serve checks every reply inline instead.
	recorded bool
}

// workloads are the benchmark's workloads; BENCHMARK.json records why
// each was chosen and README.md which layers each one exercises.
var workloads = map[string]workloadDef{
	"train": {
		setup:    setupTrain,
		unit:     "collected samples",
		rate:     "samples_per_s",
		subs:     func(sz sizes) int { return sz.SubSeeds },
		recorded: true,
	},
	"experiments": {
		setup:    setupExperiments,
		unit:     "simulated jobs",
		rate:     "sim_jobs_per_s",
		subs:     func(sz sizes) int { return sz.SubSeeds * len(sz.Specs) },
		recorded: true,
	},
	"replay": {
		setup:    setupReplay,
		unit:     "simulated jobs",
		rate:     "sim_jobs_per_s",
		subs:     func(sizes) int { return 1 },
		recorded: true,
	},
	"serve": {
		setup: setupServe,
		unit:  "requests",
		rate:  "ops_per_s",
		subs:  func(sizes) int { return 1 },
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, fmt.Sprintf("seed the workload's inputs are generated from (input set seed mod %d)", inputSets))
	seconds := fs.Float64("seconds", 10, "seconds to measure")
	traceFlag := fs.Int("trace", 0, "0: timed run with end-to-end metrics; 1: traced run with per-layer metrics")
	record := fs.String("record", "", "seed range lo-hi: record the workload's outputs for those seeds into perfbench/golden.json instead of measuring")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	if !(*seconds > 0) {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{sizes: fullSizes, seed: inputSet(*seed), workers: runtime.GOMAXPROCS(0), dir: dir}

	if *record != "" {
		return recordGolden(*name, w, e, *record, filepath.Join("perfbench", "golden.json"))
	}
	var want []json.RawMessage
	if w.recorded {
		golden, err := loadGolden()
		if err != nil {
			return err
		}
		if want = golden[*name][strconv.FormatInt(e.seed, 10)]; len(want) != w.subs(e.sizes) {
			return fmt.Errorf("golden.json holds %d outcomes of %s input set %d, want %d", len(want), *name, e.seed, w.subs(e.sizes))
		}
	}
	res, err := bench(*name, w, e, *seconds, *traceFlag == 1, want, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// metricDef declares one reported metric; BENCHMARK.json lists the same
// names, units and directions (pinned by TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// e2eMetrics are what every timed run (--trace 0) reports.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
}

// cpuGroups are the groups CPU-profile samples are charged to (see
// cpuByGroup); each is reported as <group>.cpu_s, or runtime.gc_cpu_s.
var cpuGroups = []string{
	"core", "mlkit", "dataset", "telemetry", "sim", "simnet", "machine",
	"sched", "workload", "experiments", "serve", "encoding", "runtime.gc", "other",
}

func cpuMetricName(group string) string {
	if group == "runtime.gc" {
		return "runtime.gc_cpu_s"
	}
	return group + ".cpu_s"
}

// layerMetrics are what every traced run (--trace 1) reports. A layer the
// workload does not exercise reads 0.
var layerMetrics = func() []metricDef {
	ms := []metricDef{
		{"core.collect_s", "s", "lower"},
		{"core.compare_s", "s", "lower"},
		{"core.train_cv_s", "s", "lower"},
		{"core.train_fit_s", "s", "lower"},
		{"mlkit.fit_calls", "count", "lower"},
		{"mlkit.nodes_grown", "count", "lower"},
		{"dataset.samples", "count", "higher"},
	}
	for _, spec := range fullSizes.Specs {
		ms = append(ms, metricDef{"experiments." + spec + "_s", "s", "lower"})
	}
	ms = append(ms,
		metricDef{"sched.pass_s", "s", "lower"},
		metricDef{"sched.passes", "count", "lower"},
		metricDef{"sched.gate_evals", "count", "lower"},
		metricDef{"sched.gate_vetoes", "count", "lower"},
		metricDef{"sched.gate_us_per_eval", "us", "lower"},
		metricDef{"mlkit.predict_us_per_eval", "us", "lower"},
		metricDef{"sim.events_fired", "count", "lower"},
		metricDef{"workload.next_s", "s", "lower"},
		metricDef{"serve.cache_hit_ratio", "ratio", "higher"},
		metricDef{"serve.batch_mean", "count", "higher"},
		metricDef{"serve.busy_drops", "count", "lower"},
		metricDef{"serve.ingest_p50_us", "us", "lower"},
	)
	for _, g := range cpuGroups {
		ms = append(ms, metricDef{cpuMetricName(g), "s", "lower"})
	}
	return append(ms, metricDef{"trace.overhead_pct", "%", "lower"})
}()

// result is the JSON summary printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench sets the workload up repeatedly (see setupReps), measures it for
// seconds, prints one line per metric to out, and returns the summary.
// Outcomes are checked against golden, the recorded outcomes of e.seed,
// unless it is nil.
func bench(name string, w workloadDef, e *env, seconds float64, traced bool, golden []json.RawMessage, out io.Writer) (*result, error) {
	fmt.Fprintf(out, "workload %s input set %d seconds %g trace %v workers %d\n", name, e.seed, seconds, traced, e.workers)
	chk := newChecker(golden)
	cycle := w.subs(e.sizes)
	var r runner
	var setups []float64
	for start := time.Now(); len(setups) < setupReps || time.Since(start).Seconds() < setupSeconds; {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		var err error
		if r, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		e.setups++
		setups = append(setups, time.Since(t).Seconds())
	}
	defer r.close()

	res := &result{Metrics: map[string]metricValue{}}
	put := func(m metricDef, v float64, detail string) {
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(out, "%-28s %14.6g %-6s %s\n", m.Name, v, m.Unit, detail)
	}
	if !traced {
		p := runPhase(r, seconds, cycle, nil, chk)
		reps := fmt.Sprintf("per iteration, %d iterations of %d inputs", len(p.walls), cycle)
		vals := []float64{median(setups), byInput(p.walls, cycle), byInput(p.cpus, cycle), byInput(p.allocMB, cycle)}
		details := []string{
			fmt.Sprintf("median of %d set-ups", len(setups)),
			reps,
			"user+system CPU " + reps,
			reps,
		}
		for i, m := range e2eMetrics {
			put(m, vals[i], details[i])
		}
		// Not gated: the heap peak depends on where collections fall, which
		// shifts between runs of the same inputs (see README.md).
		fmt.Fprintf(out, "%-28s %14.6g %-6s %s\n", "peak_heap_mb", byInput(p.peakHeapMB, cycle), "MB", reps)
		fmt.Fprintf(out, "%-28s %14.6g %-6s %.0f %s in %.3f s\n", w.rate, p.ops/sum(p.walls), "1/s", p.ops, w.unit, sum(p.walls))
		if rep, ok := r.(reporter); ok {
			rep.report(out)
		}
	} else {
		untraced := runPhase(r, seconds/2, cycle, nil, chk)
		tr := newTrace()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		p := runPhase(r, seconds/2, cycle, tr, chk)
		pprof.StopCPUProfile()
		cpu, err := cpuByGroup(prof.Bytes())
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		cpu["runtime.gc"] = p.gcCPU
		n := float64(len(p.walls))
		for _, g := range cpuGroups {
			tr.vals[cpuMetricName(g)] = []float64{cpu[g] / n}
		}
		tr.vals["trace.overhead_pct"] = []float64{100 * (byInput(p.walls, cycle)/byInput(untraced.walls, cycle) - 1)}
		for _, m := range layerMetrics {
			put(m, median(tr.vals[m.Name]), fmt.Sprintf("per iteration, %d traced", len(p.walls)))
		}
	}
	res.Attempted, res.Failed = chk.attempted, chk.failed
	res.Correct = chk.failed == 0
	rate := 0.0
	if chk.attempted > 0 {
		rate = float64(chk.failed) / float64(chk.attempted)
	}
	fmt.Fprintf(out, "%-28s %14.6g %-6s %d failed of %d attempted\n", "error_rate", rate, "ratio", chk.failed, chk.attempted)
	for _, note := range chk.notes {
		fmt.Fprintln(out, "check failed:", note)
	}
	return res, nil
}

// phase is what one measured stretch of iterations produced.
type phase struct {
	walls      []float64 // seconds per iteration
	cpus       []float64 // process CPU seconds per iteration
	allocMB    []float64 // heap bytes allocated per iteration, in MB
	ops        float64
	peakHeapMB []float64 // peak heap size per iteration, in MB
	gcCPU      float64   // garbage-collector CPU seconds inside iterations
}

// minIterations keeps every median over more than one sample when a
// single iteration outlasts the measured time.
const minIterations = 3

// runPhase runs whole cycles of iterations until seconds have passed
// (and at least minIterations have run), collecting a garbage-collected
// heap before each so iterations start alike. Outcomes are checked after
// each iteration's clock stops.
func runPhase(r runner, seconds float64, cycle int, tr *trace, chk *checker) phase {
	var p phase
	heap := startHeapSampler()
	defer heap.stop()
	start := time.Now()
	for i := 0; i < minIterations || i%cycle != 0 || time.Since(start).Seconds() < seconds; i++ {
		runtime.GC()
		heap.take()
		a0, g0 := readMetrics()
		c0 := cpuSeconds()
		t0 := time.Now()
		ops, outcome, err := r.iterate(i, tr, chk)
		p.walls = append(p.walls, time.Since(t0).Seconds())
		p.cpus = append(p.cpus, cpuSeconds()-c0)
		a1, g1 := readMetrics()
		p.allocMB = append(p.allocMB, float64(a1-a0)/(1<<20))
		p.gcCPU += g1 - g0
		p.peakHeapMB = append(p.peakHeapMB, heap.take())
		if !chk.check(err == nil, "iteration %d: %v", i, err) {
			break
		}
		if outcome != nil {
			chk.outcome(i%cycle, outcome)
		}
		p.ops += ops
	}
	return p
}

const (
	allocsMetric = "/gc/heap/allocs:bytes"
	gcCPUMetric  = "/cpu/classes/gc/total:cpu-seconds"
	heapMetric   = "/memory/classes/heap/objects:bytes"
)

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// readMetrics returns the bytes allocated so far and the runtime's
// estimate of the CPU seconds its garbage collector has used so far.
func readMetrics() (allocated uint64, gcCPU float64) {
	s := []metrics.Sample{{Name: allocsMetric}, {Name: gcCPUMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64()
}

// heapSampler tracks the peak heap size (live objects plus garbage not
// yet collected) by sampling it every 20 ms. It runs inside the timed
// region, so it samples sparsely: every 2 ms cost about 13% of a serve
// round.
type heapSampler struct {
	peak atomic.Uint64
	done chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			v := s[0].Value.Uint64()
			for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
			}
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// take returns the peak in MB since the previous take and starts a new
// interval.
func (h *heapSampler) take() float64 {
	return float64(h.peak.Swap(0)) / (1 << 20)
}

func (h *heapSampler) stop() {
	close(h.done)
	h.wg.Wait()
}

// trace collects per-layer readings of the traced iterations; every
// method is a no-op on a nil trace, so untraced iterations call them
// freely.
type trace struct {
	vals map[string][]float64
}

func newTrace() *trace { return &trace{vals: map[string][]float64{}} }

// add records one iteration's reading of a per-layer metric.
func (t *trace) add(name string, v float64) {
	if t != nil {
		t.vals[name] = append(t.vals[name], v)
	}
}

// span records the seconds since t0 as one reading of name.
func (t *trace) span(name string, t0 time.Time) {
	if t != nil {
		t.add(name, time.Since(t0).Seconds())
	}
}

// checker counts output checks and remembers the first failures.
type checker struct {
	// golden holds the recorded outcome of each sub-seed for this seed
	// (nil while recording, or in self-tests at other sizes).
	golden []json.RawMessage
	// first holds the first outcome seen per sub-seed in this run, so
	// repeated iterations must reproduce it.
	first     map[int][]byte
	attempted int
	failed    int
	notes     []string
}

func newChecker(golden []json.RawMessage) *checker {
	return &checker{golden: golden, first: map[int][]byte{}}
}

// check counts one check and reports whether it passed.
func (c *checker) check(ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.notes) < 5 {
			c.notes = append(c.notes, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// merge adds another checker's counts and failure notes to c.
func (c *checker) merge(o *checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, note := range o.notes {
		if len(c.notes) < 5 {
			c.notes = append(c.notes, note)
		}
	}
}

// outcome checks an iteration's outcome for sub-seed sub against the
// recorded one and against earlier iterations of the same sub-seed.
func (c *checker) outcome(sub int, v any) {
	got, err := json.Marshal(v)
	if !c.check(err == nil, "encode outcome: %v", err) {
		return
	}
	if prev, ok := c.first[sub]; ok {
		c.check(bytes.Equal(prev, got), "sub-seed %d: outcome changed between iterations: %s, then %s", sub, prev, got)
	} else {
		c.first[sub] = got
	}
	if sub < len(c.golden) {
		var want bytes.Buffer
		if err := json.Compact(&want, c.golden[sub]); err != nil {
			c.check(false, "sub-seed %d: recorded outcome: %v", sub, err)
			return
		}
		c.check(bytes.Equal(want.Bytes(), got), "sub-seed %d: outcome %s, recorded %s", sub, got, want.Bytes())
	}
}

// byInput reduces a phase's per-iteration readings, where iteration i ran
// input i mod cycle, to one figure: the lower quartile of each input's
// repetitions, then the median over inputs. Interference from other
// tenants of a shared host only ever adds time, and comes in bursts of
// seconds that can cover half a run; the lower quartile of repeated runs
// of the same input is robust to that, while a change to the program
// moves every repetition alike. An input run once counts as itself.
func byInput(xs []float64, cycle int) float64 {
	groups := make([][]float64, cycle)
	for i, x := range xs {
		groups[i%cycle] = append(groups[i%cycle], x)
	}
	var per []float64
	for _, g := range groups {
		if len(g) > 0 {
			per = append(per, percentile(g, 0.25))
		}
	}
	return median(per)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-quantile (0..1) of xs by nearest rank.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
