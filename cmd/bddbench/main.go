// Command bddbench benchmarks the BDD backend and the campaign runners
// that sit on it, emitting a machine-readable JSON report for CI trend
// tracking.
//
// Two layers are measured:
//
//   - Micro: apply (And), ITE, and SatCount throughput on randomized
//     functions over a single manager — the raw cost of the
//     complement-edge node store and its operation caches.
//   - Campaign: a stuck-at mini-campaign on a chosen circuit, all workers
//     sharing one node table: wall-clock throughput and peak heap.
//
// A second suite, -mode sched, compares dispatch orders on one campaign —
// the cone-restricted worklist under index, cone-cluster, and level
// order — and reports the throughput ratio, the gates-visited/skipped
// footprints, and whether every configuration produced bit-identical
// records (BENCH_sched.json).
//
// Usage:
//
//	bddbench                              # defaults: c1908s, 4 workers
//	bddbench -circuit c1355s -workers 8 -max 120 -out BENCH_bdd.json
//	bddbench -mode sched -circuit c1908s -workers 4 -max 120 -out BENCH_sched.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/faults"
	"repro/internal/netlist"
)

// report is the schema of the emitted JSON.
type report struct {
	Circuit   string  `json:"circuit"`
	Workers   int     `json:"workers"`
	Faults    int     `json:"faults"`
	GoVersion string  `json:"go_version"`
	NumCPU    int     `json:"num_cpu"`
	Micro     micro   `json:"micro"`
	Shared    campRun `json:"shared"`
}

type micro struct {
	ApplyNsPerOp    float64 `json:"apply_ns_per_op"`
	IteNsPerOp      float64 `json:"ite_ns_per_op"`
	SatCountNsPerOp float64 `json:"satcount_ns_per_op"`
}

type campRun struct {
	WallMs        float64 `json:"wall_ms"`
	FaultsPerSec  float64 `json:"faults_per_sec"`
	PeakHeapBytes uint64  `json:"peak_heap_bytes"`
	PeakNodes     int     `json:"peak_nodes"`
	Rebuilds      int     `json:"rebuilds"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
}

func main() {
	var (
		circuit = flag.String("circuit", "c1908s", "benchmark circuit name")
		workers = flag.Int("workers", 4, "campaign worker count")
		maxF    = flag.Int("max", 80, "cap on the stuck-at fault set (0 = all)")
		mode    = flag.String("mode", "bdd", "benchmark suite: bdd (backend micro costs + shared-table campaign) or sched (dispatch-order comparison)")
		reps    = flag.Int("reps", 3, "repetitions per configuration in -mode sched (best wall clock wins)")
		out     = flag.String("out", "BENCH_bdd.json", "output JSON path (- for stdout)")
	)
	flag.Parse()

	switch *mode {
	case "sched":
		schedMain(*circuit, *workers, *maxF, *reps, *out)
		return
	case "bdd":
	default:
		fatal(fmt.Errorf("unknown -mode %q (want bdd or sched)", *mode))
	}

	rep := report{
		Circuit:   *circuit,
		Workers:   *workers,
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
	}
	rep.Micro = microBench()

	c := circuits.MustGet(*circuit)
	fs := faults.CheckpointStuckAts(c.Decompose2())
	if *maxF > 0 && len(fs) > *maxF {
		fs = fs[:*maxF]
	}
	rep.Faults = len(fs)

	rep.Shared = campaignBench(c, fs, *workers)

	fmt.Fprintf(os.Stderr,
		"bddbench %s workers=%d faults=%d: shared %.0fms (%.0f faults/s, peak %s, %d nodes)\n",
		*circuit, *workers, rep.Faults,
		rep.Shared.WallMs, rep.Shared.FaultsPerSec, fmtBytes(rep.Shared.PeakHeapBytes), rep.Shared.PeakNodes)

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}

// microBench measures raw backend operation cost on randomized minterm
// functions: the per-call amortized cost of And, Ite, and SatCount
// including cache effects, which is how campaigns actually use them.
func microBench() micro {
	const (
		vars   = 20
		funcs  = 64
		cubes  = 24
		rounds = 4
	)
	m := bdd.NewAnon(vars)
	rng := rand.New(rand.NewSource(1))
	fn := make([]bdd.Ref, funcs)
	for i := range fn {
		acc := bdd.False
		for j := 0; j < cubes; j++ {
			cube := bdd.True
			for v := 0; v < vars; v++ {
				if rng.Intn(2) == 1 {
					cube = m.And(cube, m.Var(v))
				} else {
					cube = m.And(cube, m.NVar(v))
				}
			}
			acc = m.Or(acc, cube)
		}
		fn[i] = acc
	}

	ops := 0
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < funcs; i++ {
			m.And(fn[i], fn[(i+1+r)%funcs])
			ops++
		}
	}
	applyNs := float64(time.Since(t0).Nanoseconds()) / float64(ops)

	ops = 0
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < funcs; i++ {
			m.Ite(fn[i], fn[(i+1+r)%funcs], fn[(i+2+r)%funcs])
			ops++
		}
	}
	iteNs := float64(time.Since(t0).Nanoseconds()) / float64(ops)

	ops = 0
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < funcs; i++ {
			m.SatCount(fn[i])
			ops++
		}
	}
	satNs := float64(time.Since(t0).Nanoseconds()) / float64(ops)

	return micro{ApplyNsPerOp: applyNs, IteNsPerOp: iteNs, SatCountNsPerOp: satNs}
}

// campaignBench runs one stuck-at campaign and reports wall clock plus the
// peak live heap observed by a high-frequency sampler (HeapAlloc tracks
// the node chunks and caches directly). The heap is garbage-collected
// first so the micro benchmark's leftovers cannot inflate the peak.
func campaignBench(c *netlist.Circuit, fs []faults.StuckAt, workers int) campRun {
	runtime.GC()
	var peak atomic.Uint64
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		var ms runtime.MemStats
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak.Load() {
					peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()

	t0 := time.Now()
	study, err := analysis.RunStuckAtCampaign(c, nil, fs, analysis.CampaignConfig{Workers: workers})
	wall := time.Since(t0)
	close(stopSampler)
	<-samplerDone
	if err != nil {
		fatal(err)
	}
	st := study.Stats
	run := campRun{
		WallMs:        float64(wall.Microseconds()) / 1e3,
		PeakHeapBytes: peak.Load(),
		PeakNodes:     st.PeakNodes,
		Rebuilds:      st.Rebuilds,
		CacheHitRate:  st.Cache.HitRate(),
	}
	if wall > 0 {
		run.FaultsPerSec = float64(len(fs)) / wall.Seconds()
	}
	return run
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bddbench:", err)
	os.Exit(1)
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
