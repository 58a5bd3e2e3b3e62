package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/diffprop"
	"repro/internal/obs"
)

// traceOut is what the traced child reports: the per-layer metrics, the
// traced campaign's throughput (against which the untraced repetition
// gives the tracing overhead), and the records for the correctness check.
type traceOut struct {
	Metrics    map[string]float64  `json:"metrics"`
	FaultsPerS float64             `json:"faults_per_s"`
	Faults     int                 `json:"faults"`
	Bad        int                 `json:"bad"`
	Hashes     map[string][]string `json:"hashes"`
	Merged     string              `json:"merged,omitempty"`
}

// childTrace measures each layer from outside: every call the benchmark
// makes into netlist, faults, diffprop, analysis, supervise and obs sits
// in a span, and the layers' counters are read at those boundaries.
func childTrace(workload string, seed int64, dir, diffpropBin, spansPath string) (traceOut, error) {
	out := traceOut{Metrics: map[string]float64{}, Hashes: map[string][]string{}}
	tr := newTracer(fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
	tr.begin("run", "bench")
	cs, err := buildCampaigns(workload, seed, tr)
	if err != nil {
		return out, err
	}
	var acc serialAcc
	if workload == wlShards {
		err = traceSharded(tr, cs[0], dir, diffpropBin, &acc, &out)
	} else {
		err = traceInProcess(tr, workload, cs, dir, &acc, &out)
	}
	if err != nil {
		return out, err
	}
	tr.end()

	m := out.Metrics
	m["netlist.load_s"] = tr.sum("netlist.load").Seconds()
	m["faults.enum_s"] = tr.sum("faults.enum").Seconds()
	m["diffprop.synth_s"] = tr.sum("diffprop.synth").Seconds()
	acc.report(m)
	m["analysis.parallel_efficiency"] = acc.total.Seconds() / (m["analysis.campaign_s"] * campaignWorkers)
	m["trace.coverage"] = tr.coverage()
	return out, tr.write(spansPath)
}

// serialAcc accumulates the benchmark's own serial per-fault engine calls:
// their latencies, phase split and charged BDD operations, and the
// engines' counters.
type serialAcc struct {
	durMS  []float64
	total  time.Duration
	phases diffprop.PhaseTimes
	ops    int64
	stats  diffprop.Stats
}

// serialPass synthesizes a private engine for the campaign's circuit and
// analyzes faults [lo, hi) one call at a time with phase timing on.
func serialPass(tr *tracer, c *campaign, lo, hi int, acc *serialAcc) error {
	var (
		e   *diffprop.Engine
		err error
	)
	tr.timed("diffprop.synth "+c.key, "diffprop", func() { e, err = diffprop.New(c.circuit, nil) })
	if err != nil {
		return err
	}
	e.EnablePhaseTiming(true)
	for i := lo; i < hi; i++ {
		tr.begin("diffprop.fault", "diffprop")
		if c.sa != nil {
			e.StuckAt(c.sa[i])
		} else {
			e.Bridging(c.bf[i])
		}
		d := tr.end()
		ph := e.LastPhases()
		acc.durMS = append(acc.durMS, float64(d)/1e6)
		acc.total += d
		acc.phases.Build += ph.Build
		acc.phases.Propagate += ph.Propagate
		acc.phases.SatCount += ph.SatCount
		acc.ops += e.AnalysisOps()
	}
	acc.stats.Merge(e.Stats())
	return nil
}

// report fills the per-fault diffprop metrics. The BDD and gate-walk
// counters are filled by the workload tracers, from whichever engines ran
// the workload's own campaigns.
func (a *serialAcc) report(m map[string]float64) {
	s := append([]float64(nil), a.durMS...)
	sort.Float64s(s)
	m["diffprop.fault_samples"] = float64(len(s))
	if len(s) > 0 {
		m["diffprop.fault_p50_ms"] = s[(len(s)-1)/2]
		m["diffprop.fault_p99_ms"] = s[(len(s)-1)*99/100]
		m["bdd.ops_per_fault"] = float64(a.ops) / float64(len(s))
	}
	m["diffprop.build_s"] = a.phases.Build.Seconds()
	m["diffprop.propagate_s"] = a.phases.Propagate.Seconds()
	m["diffprop.satcount_s"] = a.phases.SatCount.Seconds()
}

// reportEngine fills the BDD and gate-walk metrics from engine counters.
func reportEngine(m map[string]float64, st diffprop.Stats) {
	m["bdd.apply_hits"] = float64(st.Cache.ApplyHits)
	m["bdd.apply_misses"] = float64(st.Cache.ApplyMisses)
	m["bdd.cache_hit_ratio"] = st.Cache.HitRate()
	m["bdd.peak_nodes"] = float64(st.PeakNodes)
	m["bdd.gc_runs"] = float64(st.Rebuilds)
	m["bdd.nodes_reclaimed"] = float64(st.NodesReclaimed)
	m["diffprop.gate_evals"] = float64(st.GateEvaluations)
	m["diffprop.gates_visited"] = float64(st.GatesVisited)
	if walked := st.GatesVisited + st.GatesSkipped; walked > 0 {
		m["diffprop.cone_skip_ratio"] = float64(st.GatesSkipped) / float64(walked)
	}
}

// ckptAcc accumulates checkpoint-layer costs.
type ckptAcc struct {
	appends  int
	appendNS int64
	fsyncs   int64
	bytes    int64
}

// replayCheckpoint appends the records of a finished checkpoint, in index
// order, to a fresh checkpoint with the same header and fsync cadence,
// timing each Append: the cost of the checkpoint layer alone, for the
// exact records the campaign persisted.
func replayCheckpoint(tr *tracer, src, dst string, acc *ckptAcc) error {
	var err error
	tr.timed("analysis.ckpt_replay", "analysis", func() {
		hdr, recs, _, lerr := analysis.LoadCheckpoint(src)
		if lerr != nil {
			err = lerr
			return
		}
		o := &obs.Observer{Metrics: obs.NewRegistry()}
		cp, cerr := analysis.CreateCheckpoint(dst, hdr)
		if cerr != nil {
			err = cerr
			return
		}
		cp.Instrument(o)
		idx := make([]int, 0, len(recs))
		for i := range recs {
			idx = append(idx, i)
		}
		sort.Ints(idx)
		for _, i := range idx {
			t := time.Now()
			if err = cp.Append(i, recs[i]); err != nil {
				cp.Close()
				return
			}
			acc.appendNS += int64(time.Since(t))
			acc.appends++
		}
		err = cp.Close()
		acc.fsyncs += o.CampaignMetrics().CheckpointFsyncs.Value()
	})
	return err
}

func (a *ckptAcc) report(m map[string]float64) {
	if a.appends > 0 {
		m["analysis.ckpt_append_us"] = float64(a.appendNS) / float64(a.appends) / 1e3
	}
	m["analysis.ckpt_bytes"] = float64(a.bytes)
	m["analysis.ckpt_fsyncs"] = float64(a.fsyncs)
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// traceInProcess traces sa-c1908 and catalog-small: the serial per-fault
// pass, the workload's campaigns with obs off (checkpointed on the
// catalog, whose checkpoints are then replayed), and the same campaigns
// with an obs.Observer carrying metrics, a tracer and a flight ring.
func traceInProcess(tr *tracer, workload string, cs []*campaign, dir string, acc *serialAcc, out *traceOut) error {
	for _, c := range cs {
		if err := serialPass(tr, c, 0, c.size(), acc); err != nil {
			return err
		}
	}
	m := out.Metrics
	checkpointed := workload == wlCatalog
	var (
		off, on time.Duration
		stats   diffprop.Stats
		ck      ckptAcc
	)
	for i, c := range cs {
		path := ""
		if checkpointed {
			path = filepath.Join(dir, fmt.Sprintf("campaign-%02d.jsonl", i))
		}
		so, d, err := timedCampaign(tr, "analysis.campaign "+c.key, c, analysis.CampaignConfig{Workers: campaignWorkers}, path)
		if err != nil {
			return err
		}
		off += d
		hashes, bad := so.digest()
		out.Hashes[c.key] = hashes
		out.Bad += bad
		out.Faults += c.size()
		stats.Merge(so.stats.EngineStats())
		if checkpointed {
			ck.bytes += fileSize(path)
			if err := replayCheckpoint(tr, path, path+".replay", &ck); err != nil {
				return err
			}
		}
	}

	traceFile, err := os.Create(filepath.Join(dir, "obs-trace.jsonl"))
	if err != nil {
		return err
	}
	defer traceFile.Close()
	var o *obs.Observer
	tr.timed("obs.new", "obs", func() {
		o = &obs.Observer{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer(traceFile, obs.FormatJSONL), Flight: obs.NewFlightRecorder(0)}
	})
	for i, c := range cs {
		path := ""
		if checkpointed {
			path = filepath.Join(dir, fmt.Sprintf("campaign-obs-%02d.jsonl", i))
		}
		so, d, err := timedCampaign(tr, "analysis.campaign+obs "+c.key, c, analysis.CampaignConfig{Workers: campaignWorkers, Obs: o}, path)
		if err != nil {
			return err
		}
		on += d
		hashes, bad := so.digest()
		out.Bad += bad + countMismatches(hashes, out.Hashes[c.key])
	}
	// Flushing the tracer and rendering the flight dump are the obs costs
	// a campaign pays at exit, outside its campaign time.
	tr.timed("obs.flight_dump", "obs", func() {
		err = o.Tracer.Close()
		o.BuildFlightDump("perfbench", "completed")
	})
	if err != nil {
		return err
	}

	reportEngine(m, stats)
	ck.report(m)
	m["analysis.campaign_s"] = off.Seconds()
	m["obs.on_off_ratio"] = on.Seconds() / off.Seconds()
	out.FaultsPerS = float64(out.Faults) / off.Seconds()
	return nil
}

// traceSharded traces sa-c1908-shards: the supervised run with a flight
// dump, then, because shard workers export no counters, a replay of each
// shard's faults on a private engine (the BDD and per-fault metrics) and
// of each shard's checkpoint (the checkpoint metrics).
func traceSharded(tr *tracer, c *campaign, dir, bin string, acc *serialAcc, out *traceOut) error {
	flight := filepath.Join(dir, "flight.json")
	var (
		run shardRun
		err error
	)
	tr.timed("supervise.run", "supervise", func() { run, err = runSharded(bin, dir, c, flight) })
	if err != nil {
		return err
	}
	var dump *obs.FlightDump
	tr.timed("obs.read_flight", "obs", func() { dump, err = obs.ReadFlightDump(flight) })
	if err != nil {
		return err
	}
	m := out.Metrics
	if err := superviseMetrics(m, dump, run); err != nil {
		return err
	}
	m["analysis.campaign_s"] = run.campaignS()
	out.FaultsPerS = float64(c.size()) / run.campaignS()
	out.Faults = c.size()
	out.Merged = run.merged
	if out.Hashes[c.key], err = checkpointHashes(run.merged); err != nil {
		return err
	}

	var ck ckptAcc
	ck.bytes = fileSize(run.merged)
	for _, r := range run.shards {
		if err := serialPass(tr, c, r[0], r[1], acc); err != nil {
			return err
		}
		path := shardPath(run, r)
		ck.bytes += fileSize(path)
		if err := replayCheckpoint(tr, path, path+".replay", &ck); err != nil {
			return err
		}
	}
	reportEngine(m, acc.stats)
	ck.report(m)
	return nil
}

// superviseMetrics reads the supervisor's flight dump. A shard worker's
// wall time runs from its spawn event to the last write of its shard
// checkpoint, which the worker closes just before it exits.
func superviseMetrics(m map[string]float64, dump *obs.FlightDump, run shardRun) error {
	spawn := map[int]time.Time{}
	restarts := 0
	for _, ev := range dump.Events {
		switch ev.Kind {
		case obs.FlightSpawn.String():
			spawn[ev.Index] = time.UnixMilli(dump.StartUnixMS).Add(time.Duration(ev.TUS) * time.Microsecond)
		case obs.FlightRestart.String():
			restarts++
		}
	}
	var sum, slowest time.Duration
	for _, r := range run.shards {
		st, ok := spawn[r[0]]
		if !ok {
			return fmt.Errorf("flight dump has no spawn event for shard %d-%d", r[0], r[1])
		}
		fi, err := os.Stat(shardPath(run, r))
		if err != nil {
			return err
		}
		wall := fi.ModTime().Sub(st)
		sum += wall
		if wall > slowest {
			slowest = wall
		}
	}
	mean := sum / time.Duration(len(run.shards))
	m["supervise.restarts"] = float64(restarts)
	m["supervise.shard_skew"] = float64(slowest) / float64(mean)
	m["supervise.overhead_s"] = run.proc.WallS - slowest.Seconds()
	return nil
}
