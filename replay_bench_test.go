package rush

// BenchmarkReplayYear is the long-horizon replay benchmark behind
// BENCH_replay.json and the `make bench-replay` CI gate: a year of
// capacity-computing submissions (~1M jobs) streamed through the
// bounded-memory replay driver on the full 2,988-node Quartz machine.
// The stream sub-benchmark feeds lazily generated jobs straight into
// ReplayStream; the swf sub-benchmark routes the same horizon through
// the zero-copy SWF scanner first, so it additionally prices
// million-line trace parsing. Neither path ever materializes the whole
// workload: jobs exist only between their submit event and their
// completion callback, and TestReplayYearHeapBounded pins that the
// driver's peak heap stops growing with the horizon.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/experiments"
	"rush/internal/sched"
	"rush/internal/sim"
	"rush/internal/workload"
)

// replayBenchDays is the simulated horizon: one year of submissions at
// ~31.5s mean interarrival, which on Quartz lands near the engine
// benchmark's half-utilization regime with roughly a million jobs.
const replayBenchDays = 365

// replayBenchInterarrival is the mean seconds between submissions.
const replayBenchInterarrival = 31.5

// synthStream lazily generates the capacity workload of
// BenchmarkEngineMonth (internal/experiments) as a workload.JobStream: the seven
// proxy apps at hour-scale run times with class-dependent allocation
// sizes. Nothing is retained between Next calls, so the driver's
// resident set is the in-flight jobs, not the horizon.
type synthStream struct {
	rng      *sim.Source
	topo     cluster.Topology
	profiles []apps.Profile
	horizon  float64
	at       float64
	i        int
}

func newSynthStream(topo cluster.Topology, seed int64, days float64) *synthStream {
	return &synthStream{
		rng:      sim.NewSource(seed).Derive("replay-year"),
		topo:     topo,
		profiles: apps.Defaults(),
		horizon:  days * 86400,
	}
}

var synthSizesByClass = map[apps.Class][]int{
	apps.ComputeIntensive: {2, 4, 8, 16, 32},
	apps.NetworkIntensive: {1, 2, 4, 8},
	apps.IOIntensive:      {1, 2},
}

func (s *synthStream) Next() (workload.SubmittedJob, bool, error) {
	s.at += s.rng.Exponential(replayBenchInterarrival)
	if s.at > s.horizon {
		return workload.SubmittedJob{}, false, nil
	}
	i := s.i
	s.i++
	p := s.profiles[i%len(s.profiles)]
	sizes := synthSizesByClass[p.Class]
	n := sizes[(i/len(s.profiles))%len(sizes)]
	if n > s.topo.Nodes/4 {
		n = s.topo.Nodes / 4
	}
	base := p.BaseTime(n, apps.ReferenceScale) * s.rng.Uniform(12, 24)
	return workload.SubmittedJob{
		Job: &sched.Job{
			ID: i, App: p, Nodes: n, BaseWork: base,
			Estimate: base * s.rng.Uniform(workload.EstimateFactorRange[0], workload.EstimateFactorRange[1]),
		},
		SubmitAt: s.at,
	}, true, nil
}

// yearSWF renders the synthetic year as Standard Workload Format bytes
// so the swf sub-benchmark exercises the scanner and converter on a
// million-line trace. Generated once: it is benchmark input, not
// benchmark work. The replay's heap sampler sees this retained buffer,
// so the swf sub-benchmark's peak-heap-MB runs ~the trace size above
// the stream sub-benchmark's; replaying from a file (OpenSWF) would
// not pay it.
var yearSWF = sync.OnceValue(func() []byte {
	topo := cluster.Quartz()
	src := newSynthStream(topo, 4242, replayBenchDays)
	var buf bytes.Buffer
	buf.Grow(72 << 20)
	for {
		j, ok, _ := src.Next()
		if !ok {
			return buf.Bytes()
		}
		// Fields: id submit wait runtime procs cpu mem reqprocs reqtime
		// (SWF runtimes are integer seconds; +1 keeps them positive).
		runtime := int64(j.Job.BaseWork) + 1
		fmt.Fprintf(&buf, "%d %d -1 %d %d -1 -1 %d %d -1 1 1 1 1 1 -1 -1 -1\n",
			j.Job.ID+1, int64(j.SubmitAt), runtime, j.Job.Nodes*topo.CoresPerNode,
			j.Job.Nodes*topo.CoresPerNode, int64(j.Job.Estimate)+1)
	}
})

func benchReplayYear(b *testing.B, mkStream func() workload.JobStream) {
	b.ReportAllocs()
	topo := cluster.Quartz()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		stream := mkStream()
		b.StartTimer()
		sum, err := experiments.ReplayStream("replay-year", stream, experiments.Baseline, nil, 4242, experiments.Config{
			Topo:       topo,
			MaxSimTime: 2 * replayBenchDays * 86400,
			Metrics:    true,
			MemSample:  86400,
		})
		if err != nil {
			b.Fatal(err)
		}
		if sum.Jobs != sum.Submitted || sum.Jobs == 0 {
			b.Fatalf("completed %d of %d jobs", sum.Jobs, sum.Submitted)
		}
		b.ReportMetric(float64(sum.Jobs), "jobs/op")
		b.ReportMetric(float64(sum.PeakHeapBytes)/(1<<20), "peak-heap-MB")
	}
}

func BenchmarkReplayYear(b *testing.B) {
	b.Run("quartz/stream", func(b *testing.B) {
		benchReplayYear(b, func() workload.JobStream {
			return newSynthStream(cluster.Quartz(), 4242, replayBenchDays)
		})
	})
	b.Run("quartz/swf", func(b *testing.B) {
		raw := yearSWF() // generated once; input, not work
		b.ResetTimer()
		b.ReportMetric(float64(len(raw))/(1<<20), "swf-MB")
		benchReplayYear(b, func() workload.JobStream {
			return workload.NewSWFStream(bytes.NewReader(raw), workload.SWFOptions{
				CoresPerNode: cluster.Quartz().CoresPerNode,
			})
		})
	})
}

// TestReplayYearHeapBounded pins the bounded-memory contract the
// benchmark's flat heap profile relies on: doubling the simulated
// horizon must not grow the driver's peak heap, because completed jobs
// are discarded, telemetry history is pruned, and the trace buffer is
// flushed in batches. The horizons are scaled down from the benchmark's
// year so the test stays in the seconds range; the per-day heap samples
// feeding PeakHeapBytes make the comparison horizon-independent.
func TestReplayYearHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("long-horizon replay")
	}
	peak := func(days float64) uint64 {
		sum, err := experiments.ReplayStream("replay-heap",
			newSynthStream(cluster.Quartz(), 7, days),
			experiments.Baseline, nil, 7, experiments.Config{
				Topo:       cluster.Quartz(),
				MaxSimTime: 2 * days * 86400,
				Metrics:    true,
				MemSample:  86400,
			})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Jobs != sum.Submitted {
			t.Fatalf("%v days: completed %d of %d jobs", days, sum.Jobs, sum.Submitted)
		}
		return sum.PeakHeapBytes
	}
	half, full := peak(30), peak(60)
	// Allow slack for GC timing noise; what must not happen is the
	// linear growth a retained job history would show.
	if float64(full) > 1.5*float64(half) {
		t.Fatalf("peak heap grows with horizon: %d MB at 30 days vs %d MB at 60 days",
			half>>20, full>>20)
	}
	t.Logf("peak heap: %d MB at 30 days, %d MB at 60 days", half>>20, full>>20)
}
