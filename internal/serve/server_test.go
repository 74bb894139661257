package serve_test

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rush/internal/mlkit"
	"rush/internal/obs"
	"rush/internal/serve"
	"rush/internal/telemetry"
)

// blockingModel parks every Predict call until released, so tests can
// hold a decision in flight deterministically.
type blockingModel struct {
	started chan struct{}
	release chan struct{}
}

func (m *blockingModel) Fit(x [][]float64, y []int) error { return nil }
func (m *blockingModel) Name() string                     { return "blocking" }
func (m *blockingModel) Predict(sample []float64) int {
	m.started <- struct{}{}
	<-m.release
	return 0
}

var _ mlkit.Classifier = (*blockingModel)(nil)

func feats6() serve.FeatureVector { return serve.FeatureVector{0.1, 0.2, 0.1, 0.15, 0.2, 0.1} }

// TestBackpressureBusy pins the bounded-queue behavior: with one
// in-flight slot occupied, the next decision is answered BUSY without
// touching the pipeline, and the slot frees once the first decision
// completes.
func TestBackpressureBusy(t *testing.T) {
	model := &blockingModel{started: make(chan struct{}, 8), release: make(chan struct{})}
	srv, err := serve.NewServer(serve.Config{Model: model, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	firstDone := make(chan serve.Response, 1)
	go func() {
		var resp serve.Response
		srv.Handle(&serve.Request{V: 1, ID: 1, Op: serve.OpDecide, Now: 10, Feats: feats6()}, &resp)
		firstDone <- resp
	}()
	<-model.started // the first decision is now parked inside inference

	var busy serve.Response
	srv.Handle(&serve.Request{V: 1, ID: 2, Op: serve.OpDecide, Now: 11, Feats: feats6()}, &busy)
	if busy.Status != serve.StatusBusy {
		t.Fatalf("expected BUSY while the only slot is occupied, got %+v", busy)
	}
	if srv.Stats()["serve_backpressure_drops_total"] != 1 {
		t.Fatalf("backpressure drop not counted: %v", srv.Stats())
	}

	close(model.release)
	first := <-firstDone
	if first.Status != serve.StatusOK || first.Decision != obs.DecisionStart {
		t.Fatalf("first decision: %+v", first)
	}

	var after serve.Response
	srv.Handle(&serve.Request{V: 1, ID: 3, Op: serve.OpDecide, Now: 12, Feats: feats6()}, &after)
	if after.Status != serve.StatusOK {
		t.Fatalf("slot did not free after completion: %+v", after)
	}
}

// TestDegradedModeBreakerCycle walks the full degraded-mode contract:
// an outage fails decisions open with a typed reason, repeated failures
// trip the breaker (fail-open without consulting anything), and after
// the open window a recovered model path closes it again.
func TestDegradedModeBreakerCycle(t *testing.T) {
	srv, err := serve.NewServer(serve.Config{Model: conformanceModel(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetOutage(true)

	var resp serve.Response
	for i := 0; i < 3; i++ { // sched.NewBreaker trips after 3 failures
		srv.Handle(&serve.Request{V: 1, Op: serve.OpDecide, Now: float64(10 + i), Feats: feats6()}, &resp)
		if resp.Decision != obs.DecisionFailOpen || resp.Reason != obs.ReasonModelDown {
			t.Fatalf("outage decision %d: %+v", i, resp)
		}
	}
	srv.Handle(&serve.Request{V: 1, Op: serve.OpDecide, Now: 14, Feats: feats6()}, &resp)
	if resp.Decision != obs.DecisionFailOpen || resp.Reason != obs.ReasonBreakerOpen {
		t.Fatalf("breaker should be open: %+v", resp)
	}

	srv.SetOutage(false)
	// Still inside the open window: the breaker answers without the model.
	srv.Handle(&serve.Request{V: 1, Op: serve.OpDecide, Now: 100, Feats: feats6()}, &resp)
	if resp.Reason != obs.ReasonBreakerOpen {
		t.Fatalf("open window decision: %+v", resp)
	}
	// Past the open window: half-open probe succeeds and closes it.
	srv.Handle(&serve.Request{V: 1, Op: serve.OpDecide, Now: 1000, Feats: feats6()}, &resp)
	if resp.Status != serve.StatusOK || resp.Decision != obs.DecisionStart {
		t.Fatalf("recovery decision: %+v", resp)
	}
	srv.Handle(&serve.Request{V: 1, Op: serve.OpDecide, Now: 1001, Feats: feats6()}, &resp)
	if resp.Decision != obs.DecisionStart {
		t.Fatalf("post-recovery decision: %+v", resp)
	}
}

// TestServerDerivedStaleness pins the server-side freshness clock: with
// no client-measured age, decisions compare the request time against the
// last ingest and fail open once the window exceeds MaxStaleness.
func TestServerDerivedStaleness(t *testing.T) {
	srv, err := serve.NewServer(serve.Config{Model: conformanceModel(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ingest(t, srv, 100)

	var resp serve.Response
	srv.Handle(&serve.Request{V: 1, Op: serve.OpDecide, Now: 150, Feats: feats6()}, &resp)
	if resp.Decision != obs.DecisionStart || resp.Age != 50 {
		t.Fatalf("fresh decision: %+v", resp)
	}
	srv.Handle(&serve.Request{V: 1, Op: serve.OpDecide, Now: 300, Feats: feats6()}, &resp)
	if resp.Decision != obs.DecisionFailOpen || resp.Reason != obs.ReasonStaleTelemetry || resp.Age != 200 {
		t.Fatalf("stale decision: %+v", resp)
	}
}

func ingest(t testing.TB, srv *serve.Server, now float64) {
	t.Helper()
	agg := telemetry.Aggregates{
		Min:  make([]float64, telemetry.NumCounters),
		Mean: make([]float64, telemetry.NumCounters),
		Max:  make([]float64, telemetry.NumCounters),
	}
	for i := range agg.Mean {
		agg.Min[i], agg.Mean[i], agg.Max[i] = 0.1, 0.2, 0.3
	}
	if err := srv.Ingest(now, int64(now), agg); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSwapIngestDecide hammers lock-free decisions against
// concurrent snapshot publication (ingest) and model hot-swaps. Run
// under -race by the `make race` CI gate, it pins the RCU contract: no
// torn snapshots, every response a coherent (epoch, decision) pair.
func TestConcurrentSwapIngestDecide(t *testing.T) {
	modelA := conformanceModel(t, 1)
	modelB := conformanceModel(t, 2)
	srv, err := serve.NewServer(serve.Config{Model: modelA})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ingest(t, srv, 0)

	const deciders = 6
	const perDecider = 300
	var wg sync.WaitGroup
	for d := 0; d < deciders; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			var resp serve.Response
			for i := 0; i < perDecider; i++ {
				req := serve.Request{V: 1, Op: serve.OpDecide, Now: float64(i)}
				if i%2 == 0 {
					req.Scope = "part-a" // exercise the cache under invalidation
				} else {
					req.Feats = feats6()
				}
				srv.Handle(&req, &resp)
				if resp.Status != serve.StatusOK {
					t.Errorf("decider %d: %+v", d, resp)
					return
				}
				if resp.Decision == obs.DecisionVeto || resp.Decision == obs.DecisionStart {
					if resp.Class < 0 {
						t.Errorf("evaluated decision without a class: %+v", resp)
						return
					}
				}
			}
		}(d)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			ingest(t, srv, float64(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if i%2 == 0 {
				srv.SwapModel(modelB)
			} else {
				srv.SwapModel(modelA)
			}
		}
	}()
	wg.Wait()

	stats := srv.Stats()
	if stats["serve_model_swaps_total"] != 200 || stats["serve_ingests_total"] != 201 {
		t.Fatalf("lifecycle counters: %v", stats)
	}
	if srv.Snapshot().Epoch != 401 {
		t.Fatalf("epoch = %d, want 401 (200 swaps + 201 ingests)", srv.Snapshot().Epoch)
	}
	if got := stats["serve_decisions_total"]; got != deciders*perDecider {
		t.Fatalf("decisions = %d, want %d", got, deciders*perDecider)
	}
}

// TestDialCloseNoPing is the regression test for a shutdown race: a
// connection accepted while Close was already waiting for the
// connection goroutines used to register itself with the server's
// WaitGroup concurrently with that Wait, which the race detector flags
// and which occasionally panicked with "WaitGroup is reused before
// previous Wait has returned". Each iteration dials and closes at once,
// without a request, so Accept and Close overlap as often as possible.
// Run it under -race.
func TestDialCloseNoPing(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 200; i++ {
		srv, err := serve.NewServer(serve.Config{Model: &blockingModel{}})
		if err != nil {
			t.Fatal(err)
		}
		addr := "unix:" + filepath.Join(dir, fmt.Sprintf("s%d.sock", i))
		ln, err := serve.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		c, err := serve.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		srv.Close()
		c.Close()
		awaitServe(t, ln, served)
	}
}

// TestCloseBeforeServe is the regression test for the other shutdown
// race: a Close that runs before Serve has registered its listener used
// to leave Serve blocked in Accept forever. Serve on a closed server
// must return at once.
func TestCloseBeforeServe(t *testing.T) {
	srv, err := serve.NewServer(serve.Config{Model: &blockingModel{}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := serve.Listen("unix:" + filepath.Join(t.TempDir(), "serve.sock"))
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	awaitServe(t, ln, served)
}

// awaitServe waits for a Serve call on a closed server to return nil.
// On timeout it closes ln to release a Serve stuck in Accept.
func awaitServe(t *testing.T, ln net.Listener, served <-chan error) {
	t.Helper()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after Close", err)
		}
	case <-time.After(5 * time.Second):
		ln.Close()
		t.Fatal("Serve blocked in Accept after Close")
	}
}
