package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"path/filepath"
	"sync"
	"time"

	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/core"
	"rush/internal/dataset"
	"rush/internal/machine"
	"rush/internal/obs"
	"rush/internal/sched"
	"rush/internal/serve"
	"rush/internal/sim"
	"rush/internal/telemetry"
	"rush/internal/workload"
)

// serveSpec is the Table II experiment whose served RUSH trial the serve
// set-up records.
const serveSpec = "ADAA"

// serveRunner drives an in-process rush-serve daemon on a unix socket
// with two closed-loop client connections, one per client kind the
// protocol supports; a scheduler waits for each decision before it asks
// the next. Both replay gate traffic recorded in set-up from a RUSH
// trial scheduled through serve.Gate:
//
//   - the two-phase client sends exactly the check and eval requests
//     serve.Gate sent (the batcher and inference path);
//   - the counters-only client asks for the same decisions as
//     single-shot decides, scoped to the pod of the job's allocation
//     (the cache path), and publishes one telemetry window per LDMS
//     sample tick the trial's clock crossed (writes that bump the epoch
//     and invalidate the cache).
type serveRunner struct {
	srv     *serve.Server
	ln      net.Listener
	served  chan error
	clients []*serve.Client
	// scripts holds each connection's request sequence for one round.
	scripts [][]serveOp
	// Latencies (µs) of every request so far, by operation.
	decideUS, evalUS, ingestUS []float64
}

// serveOp is one scripted request, with the reply it must get.
type serveOp struct {
	req          serve.Request
	wantDecision string // "" accepts start or veto
	wantClass    int
}

// gateCall is one serve.Gate.Allow call of the recorded trial.
type gateCall struct {
	check, eval *serve.Request // eval is nil when the check decided alone
	// checkDecision is the server's answer to check.
	checkDecision string
	// scope names the pod of the allocation the gate judged.
	scope string
}

func setupServe(e *env) (runner, error) {
	_, pred, err := trainPredictor(e.PredictorDays)
	if err != nil {
		return nil, err
	}
	r := &serveRunner{served: make(chan error, 1)}
	if r.srv, err = serve.NewServer(serve.Config{Model: pred.Model}); err != nil {
		return nil, err
	}
	sock := filepath.Join(e.dir, fmt.Sprintf("serve-%d.sock", e.setups))
	if r.ln, err = serve.Listen("unix:" + sock); err != nil {
		r.srv.Close()
		return nil, err
	}
	go func() { r.served <- r.srv.Serve(r.ln) }()

	spec, err := workload.SpecByName(serveSpec)
	if err != nil {
		r.close()
		return nil, err
	}
	calls, err := recordGateTraffic(sock, spec, e.seed)
	if err != nil {
		r.close()
		return nil, fmt.Errorf("record gate traffic: %w", err)
	}
	// A round replays the first decision on each job. How often the gate
	// re-judges a vetoed job varies several-fold between trial seeds; the
	// first decisions are one per job, spread over the whole trial, so
	// every input set's round does about the same work.
	firsts := firstPerJob(calls)
	if len(firsts) != spec.NumJobs {
		r.close()
		return nil, fmt.Errorf("recorded trial judged %d of %d jobs", len(firsts), spec.NumJobs)
	}
	// The in-process rule the served eval decisions must match.
	rule := &sched.Snapshot{Model: pred.Model, VariationLabels: map[int]bool{dataset.LabelVariation: true}}
	r.scripts = serveScripts(firsts, rule)

	for range r.scripts {
		client, err := serve.Dial("unix:" + sock)
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, client)
		// Dial returns before the server has accepted the connection, and
		// a Server.Close that races with that accept panics ("WaitGroup is
		// reused"). A round trip leaves the connection accepted, so the
		// next set-up may close this one at once.
		if _, err := client.Ping(); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// tapConn copies every byte a connection sends and receives.
type tapConn struct {
	net.Conn
	sent, received bytes.Buffer
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.sent.Write(p)
	return c.Conn.Write(p)
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.received.Write(p[:n])
	return n, err
}

// scopeGate records the pod of each allocation the served gate judges.
type scopeGate struct {
	*serve.Gate
	topo   cluster.Topology
	scopes []string
}

func (g *scopeGate) Allow(j *sched.Job, alloc cluster.Allocation) bool {
	g.scopes = append(g.scopes, fmt.Sprintf("pod%d", g.topo.PodOf(alloc.Nodes[0])))
	return g.Gate.Allow(j, alloc)
}

// recordGateTraffic schedules one RUSH trial of spec with trial seed seed
// through serve.Gate, talking to the daemon on the unix socket sock, and
// returns the gate calls it made, with the requests and replies as they
// crossed the wire.
func recordGateTraffic(sock string, spec workload.Spec, seed int64) ([]gateCall, error) {
	jobs, err := workload.Generate(spec, seed)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("unix", sock)
	if err != nil {
		return nil, err
	}
	tap := &tapConn{Conn: conn}
	client := serve.NewClient(tap)
	defer client.Close()

	eng := sim.New(seed)
	topo := cluster.Pod512()
	m, err := machine.New(eng, topo)
	if err != nil {
		return nil, err
	}
	noise, err := m.StartNoise(apps.DefaultNoise())
	if err != nil {
		return nil, err
	}
	m.StartPruning(telemetry.WindowSeconds, 3*telemetry.WindowSeconds)
	gate := &scopeGate{Gate: serve.NewGate(m, client), topo: topo}
	s, err := sched.NewScheduler(sched.Config{Machine: m, Primary: sched.FCFS{}, Backfill: sched.FCFS{}, Gate: gate})
	if err != nil {
		return nil, err
	}
	for _, sj := range jobs {
		sj := sj
		eng.At(sj.SubmitAt, func() { s.Submit(sj.Job) })
	}
	for s.CompletedCount() < len(jobs) {
		if !eng.Step() {
			return nil, fmt.Errorf("event queue drained with %d of %d jobs done", s.CompletedCount(), len(jobs))
		}
	}
	noise.Stop()
	if err := s.Err(); err != nil {
		return nil, err
	}
	if gate.Err != nil {
		return nil, gate.Err
	}

	var calls []gateCall
	reqs := bufio.NewReader(&tap.sent)
	resps := bufio.NewReader(&tap.received)
	for {
		req := &serve.Request{}
		if err := serve.ReadFrame(reqs, req); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, err
		}
		var resp serve.Response
		if err := serve.ReadFrame(resps, &resp); err != nil {
			return nil, err
		}
		if resp.Status != serve.StatusOK {
			return nil, fmt.Errorf("%s job %d: status %q: %s", req.Op, req.Job, resp.Status, resp.Error)
		}
		switch req.Op {
		case serve.OpCheck:
			if len(calls) == len(gate.scopes) {
				return nil, errors.New("more checks than gate calls")
			}
			calls = append(calls, gateCall{check: req, checkDecision: resp.Decision, scope: gate.scopes[len(calls)]})
		case serve.OpEval:
			if len(calls) == 0 || calls[len(calls)-1].eval != nil {
				return nil, fmt.Errorf("eval for job %d without a check", req.Job)
			}
			calls[len(calls)-1].eval = req
		default:
			return nil, fmt.Errorf("unexpected %s request from the gate", req.Op)
		}
	}
	if len(calls) != len(gate.scopes) {
		return nil, fmt.Errorf("%d checks for %d gate calls", len(calls), len(gate.scopes))
	}
	return calls, nil
}

// firstPerJob keeps the first gate call on each job.
func firstPerJob(calls []gateCall) []gateCall {
	seen := map[int]bool{}
	var firsts []gateCall
	for _, c := range calls {
		if !seen[c.check.Job] {
			seen[c.check.Job] = true
			firsts = append(firsts, c)
		}
	}
	return firsts
}

// serveScripts turns recorded gate calls into the two connections'
// scripts: the two-phase client's checks and evals, and the
// counters-only client's ingests and decides (see serveRunner).
func serveScripts(calls []gateCall, rule *sched.Snapshot) [][]serveOp {
	var twoPhase, countersOnly []serveOp
	// window is the telemetry the next ingest publishes: the counter
	// min/mean/max of the latest feature vector the gate sent.
	var window telemetry.Aggregates
	for _, c := range calls {
		if c.eval != nil {
			window = aggregatesOf(c.eval.Feats)
			break
		}
	}
	nextTick := int64(-1)
	for _, c := range calls {
		tick := int64(math.Floor(c.check.Now / telemetry.SamplePeriod))
		if nextTick < 0 {
			nextTick = tick // the first window lands just before the first decide
		}
		for ; nextTick <= tick; nextTick++ {
			countersOnly = append(countersOnly, serveOp{req: serve.Request{
				Op: serve.OpIngest, Now: float64(nextTick) * telemetry.SamplePeriod, Tick: nextTick,
				Min: window.Min, Mean: window.Mean, Max: window.Max,
			}})
		}
		want := ""
		if c.checkDecision == obs.DecisionOverride {
			want = obs.DecisionOverride
		}
		countersOnly = append(countersOnly, serveOp{req: serve.Request{
			Op: serve.OpDecide, Now: c.check.Now, Job: c.check.Job, App: c.check.App, Class: c.check.Class,
			Skips: c.check.Skips, SkipLimit: c.check.SkipLimit, Age: c.check.Age, Scope: c.scope,
		}, wantDecision: want})

		twoPhase = append(twoPhase, serveOp{req: *c.check, wantDecision: c.checkDecision})
		if c.eval != nil {
			veto, class := rule.Decide(c.eval.Feats, nil)
			decision := obs.DecisionStart
			if veto {
				decision = obs.DecisionVeto
			}
			twoPhase = append(twoPhase, serveOp{req: *c.eval, wantDecision: decision, wantClass: class})
			window = aggregatesOf(c.eval.Feats)
		}
	}
	return [][]serveOp{twoPhase, countersOnly}
}

// trainPredictor collects the fixed predictor campaign and trains the
// deployed AdaBoost predictor on its job-scope data.
func trainPredictor(days int) (*core.CollectResult, *core.Predictor, error) {
	res, err := core.Collect(core.CollectConfig{Days: days, Seed: predictorSeed, Incident: true})
	if err != nil {
		return nil, nil, err
	}
	pred, err := core.TrainPredictor(res.JobScope, core.ModelAdaBoost, nil, predictorSeed)
	return res, pred, err
}

// aggregatesOf recovers the telemetry window a feature vector was built
// from: its leading features are each counter's min, mean and max.
func aggregatesOf(row []float64) telemetry.Aggregates {
	n := telemetry.NumCounters
	agg := telemetry.Aggregates{Min: make([]float64, n), Mean: make([]float64, n), Max: make([]float64, n)}
	for i := 0; i < n; i++ {
		agg.Min[i], agg.Mean[i], agg.Max[i] = row[3*i], row[3*i+1], row[3*i+2]
	}
	return agg
}

// connResult is what one connection's round produced.
type connResult struct {
	chk                        *checker
	decideUS, evalUS, ingestUS []float64
}

func (r *serveRunner) iterate(_ int, tr *trace, chk *checker) (float64, any, error) {
	before := r.srv.Stats()
	results := make([]connResult, len(r.clients))
	var wg sync.WaitGroup
	for c := range r.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = runScript(r.clients[c], r.scripts[c])
		}(c)
	}
	wg.Wait()
	after := r.srv.Stats()

	var ops float64
	var ingestUS []float64
	for _, res := range results {
		chk.merge(res.chk)
		ops += float64(res.chk.attempted)
		r.decideUS = append(r.decideUS, res.decideUS...)
		r.evalUS = append(r.evalUS, res.evalUS...)
		r.ingestUS = append(r.ingestUS, res.ingestUS...)
		ingestUS = append(ingestUS, res.ingestUS...)
	}
	if tr != nil {
		delta := func(name string) float64 { return float64(after[name] - before[name]) }
		hits := delta("serve_cache_hits_total")
		tr.add("serve.cache_hit_ratio", ratio(hits, hits+delta("serve_cache_misses_total")))
		tr.add("serve.batch_mean", ratio(delta("serve_batched_decisions_total"), delta("serve_batches_total")))
		tr.add("serve.busy_drops", delta("serve_backpressure_drops_total"))
		tr.add("serve.ingest_p50_us", median(ingestUS))
	}
	return ops, nil, nil
}

// runScript sends one connection's requests back to back, checking each
// reply; one attempted check per request.
func runScript(client *serve.Client, script []serveOp) connResult {
	res := connResult{chk: newChecker(nil)}
	for i := range script {
		op := &script[i]
		t := time.Now()
		resp, err := client.Do(&op.req)
		us := float64(time.Since(t).Nanoseconds()) / 1e3
		if err != nil {
			res.chk.check(false, "%s: %v", op.req.Op, err)
			return res
		}
		switch op.req.Op {
		case serve.OpDecide:
			res.decideUS = append(res.decideUS, us)
		case serve.OpEval:
			res.evalUS = append(res.evalUS, us)
		case serve.OpIngest:
			res.ingestUS = append(res.ingestUS, us)
		}
		ok := resp.Status == serve.StatusOK
		switch {
		case op.req.Op == serve.OpIngest:
		case op.wantDecision == "":
			ok = ok && (resp.Decision == obs.DecisionStart || resp.Decision == obs.DecisionVeto)
		case op.req.Op == serve.OpEval:
			ok = ok && resp.Decision == op.wantDecision && resp.Class == op.wantClass
		default:
			ok = ok && resp.Decision == op.wantDecision
		}
		if ok {
			res.chk.attempted++ // a passed check; no message to format
			continue
		}
		res.chk.check(false, "%s job %d: status %q decision %q class %d, want decision %q class %d",
			op.req.Op, op.req.Job, resp.Status, resp.Decision, resp.Class, op.wantDecision, op.wantClass)
	}
	return res
}

func (r *serveRunner) close() error {
	for _, c := range r.clients {
		c.Close()
	}
	r.srv.Close()
	// Server.Close closes the listener only once Serve has registered
	// it; closing it here too ends a Serve that had not started yet.
	r.ln.Close()
	return <-r.served
}

func (r *serveRunner) report(w io.Writer) {
	for _, l := range []struct {
		name string
		us   []float64
	}{{"decide", r.decideUS}, {"eval", r.evalUS}} {
		fmt.Fprintf(w, "%-28s %14.6g %-6s n=%d\n", l.name+"_p50_us", percentile(l.us, 0.50), "us", len(l.us))
		fmt.Fprintf(w, "%-28s %14.6g %-6s n=%d\n", l.name+"_p99_us", percentile(l.us, 0.99), "us", len(l.us))
	}
	fmt.Fprintf(w, "%-28s %14.6g %-6s n=%d\n", "ingest_p50_us", percentile(r.ingestUS, 0.50), "us", len(r.ingestUS))
}
