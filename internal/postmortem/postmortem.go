// Package postmortem turns flight-recorder dumps into campaign
// post-mortem reports: throughput curves, outcome breakdowns, per-worker
// utilization, rescue-ladder effectiveness, the most expensive faults,
// checkpoint I/O health, a chaos audit correlating every injection with
// the records it produced, a supervision digest (worker deaths, lease
// re-dispatches, shard bisections, poison-fault quarantines), and anomaly
// flags. It consumes only the
// obs.FlightDump schema — callers that want fault names or checkpoint
// cross-checks digest those files themselves and pass the results in
// through Options, keeping this package free of analysis dependencies.
package postmortem

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Options tunes a post-mortem analysis.
type Options struct {
	// TopN bounds the most-expensive-faults table (default 10).
	TopN int
	// FaultNames maps campaign fault indices to human names, typically
	// digested from a -trace file. Missing entries render as #index.
	FaultNames map[int]string
	// Checkpoint, when set, is cross-checked against the dumps' fault
	// and checkpoint-append events.
	Checkpoint *CheckpointInfo
}

// CheckpointInfo is the digested view of a checkpoint file the caller
// loaded (postmortem itself never reads checkpoints).
type CheckpointInfo struct {
	Kind    string // "stuckat" or "bridging"
	Circuit string
	Faults  int // campaign fault-set size from the header
	Records int // persisted records after later-line-wins dedup
}

// Report is the outcome of analyzing one or more flight dumps from the
// same campaign (multiple dumps = a kill-and-resume sequence in run
// order).
type Report struct {
	// Markdown is the rendered report.
	Markdown string
	// Outcomes counts fault events by outcome label across all dumps.
	Outcomes map[string]int
	// FaultsAnalyzed counts distinct fault indices seen in fault events.
	FaultsAnalyzed int
	// DuplicateFaults counts fault indices recorded by more than one run
	// — a kill-and-resume sequence should have none.
	DuplicateFaults int
	// ChaosInjected counts chaos events across all dumps.
	ChaosInjected int
	// ChaosUncorrelated counts chaos events that no fault, checkpoint or
	// supervision record accounts for.
	ChaosUncorrelated int
	// EventsDropped sums ring overwrites across dumps; a non-zero value
	// means counts reconstructed from events are lower bounds.
	EventsDropped uint64
	// WorkerDeaths counts supervised worker-subprocess deaths across
	// dumps (zero for single-process runs).
	WorkerDeaths int
	// Restarts counts supervisor lease re-dispatches after those deaths.
	Restarts int
	// Quarantined lists the global fault indices the supervisor isolated
	// as poison faults after bisection.
	Quarantined []int
	// Anomalies lists the detected anomaly flags, empty when healthy.
	Anomalies []string
}

// chaosCorrelation classifies how each chaos point should echo in the
// record stream: fault-keyed points resolve through the fault event at
// the injection's index, I/O points through checkpointer poisoning, and
// process-level points through supervision events.
var chaosFaultKeyed = map[string]bool{
	"budget": true, "nodelimit": true, "panic": true, "latency": true,
}

// Analyze builds a post-mortem report from flight dumps in run order.
func Analyze(dumps []*obs.FlightDump, opts Options) (*Report, error) {
	if len(dumps) == 0 {
		return nil, fmt.Errorf("postmortem: no flight dumps given")
	}
	for i, d := range dumps {
		if d == nil {
			return nil, fmt.Errorf("postmortem: dump %d is nil", i)
		}
	}
	if opts.TopN <= 0 {
		opts.TopN = 10
	}

	rep := &Report{Outcomes: map[string]int{}}
	var b strings.Builder

	// Per-run digests feed every section below.
	type faultEvent struct {
		run    int
		index  int
		worker int
		tus    int64 // µs since that run's start
		absUS  int64 // µs on the shared wall clock (StartUnixMS anchored)
		durUS  int64
		ops    int64
		label  string
	}
	var (
		faultEvents []faultEvent
		perRunIdx   = make([]map[int]bool, len(dumps))
		blows1      int
		blows2      int
		gcPasses    int
		gcReclaimed int64
		calibs      int
		appends     int
		fsyncs      int
		ckptErrs    []obs.FlightEvent
		chaosEvents []struct {
			run int
			ev  obs.FlightEvent
		}
		workerBusyUS = map[int]int64{}
		spawns       int
		deaths       []obs.FlightEvent
		deathsPerRun = make([]int, len(dumps))
		stallsPerRun = make([]int, len(dumps))
		resumePerRun = make([]int, len(dumps))
		bisectEvents []obs.FlightEvent
		quarEvents   []obs.FlightEvent
	)
	for ri, d := range dumps {
		rep.EventsDropped += d.EventsDropped
		perRunIdx[ri] = make(map[int]bool)
		for _, ev := range d.Events {
			switch ev.Kind {
			case "fault":
				fe := faultEvent{
					run: ri, index: ev.Index, worker: ev.Worker,
					tus: ev.TUS, absUS: d.StartUnixMS*1000 + ev.TUS,
					durUS: ev.A, ops: ev.B, label: ev.Label,
				}
				faultEvents = append(faultEvents, fe)
				perRunIdx[ri][ev.Index] = true
				rep.Outcomes[ev.Label]++
				if ev.Worker >= 0 {
					workerBusyUS[ev.Worker] += ev.A
				}
			case "budget_blow":
				if ev.A >= 2 {
					blows2++
				} else {
					blows1++
				}
			case "gc":
				gcPasses++
				gcReclaimed += ev.A
			case "calibration":
				calibs++
			case "ckpt_append":
				appends++
			case "ckpt_fsync":
				fsyncs++
			case "ckpt_error":
				ckptErrs = append(ckptErrs, ev)
			case "chaos":
				chaosEvents = append(chaosEvents, struct {
					run int
					ev  obs.FlightEvent
				}{ri, ev})
			case "resume":
				resumePerRun[ri]++
			case "spawn":
				spawns++
			case "worker_death":
				deaths = append(deaths, ev)
				deathsPerRun[ri]++
				if ev.Label == "stall" {
					stallsPerRun[ri]++
				}
				rep.WorkerDeaths++
			case "restart":
				rep.Restarts++
			case "bisect":
				bisectEvents = append(bisectEvents, ev)
			case "quarantine":
				quarEvents = append(quarEvents, ev)
				rep.Quarantined = append(rep.Quarantined, ev.Index)
			}
		}
	}

	// Distinct/duplicate coverage across the kill-and-resume sequence.
	seen := map[int]int{}
	for ri := range dumps {
		for idx := range perRunIdx[ri] {
			seen[idx]++
		}
	}
	rep.FaultsAnalyzed = len(seen)
	for _, n := range seen {
		if n > 1 {
			rep.DuplicateFaults++
		}
	}

	// ---- Run overview ----
	b.WriteString("# Campaign post-mortem\n\n")
	b.WriteString("## Run overview\n\n")
	b.WriteString("| run | program | reason | duration | events | dropped |\n")
	b.WriteString("|----:|---------|--------|---------:|-------:|--------:|\n")
	for ri, d := range dumps {
		dur := float64(d.DumpUnixMS-d.StartUnixMS) / 1000
		fmt.Fprintf(&b, "| %d | %s | %s | %.1fs | %d | %d |\n",
			ri+1, d.Program, d.Reason, dur, d.EventsTotal, d.EventsDropped)
	}
	if rep.EventsDropped > 0 {
		fmt.Fprintf(&b, "\n> **Warning:** %d events were overwritten by ring wrap; "+
			"event-derived counts below are lower bounds.\n", rep.EventsDropped)
	}

	// ---- Outcomes ----
	b.WriteString("\n## Outcomes\n\n")
	if len(faultEvents) == 0 {
		b.WriteString("No fault events recorded.\n")
	} else {
		b.WriteString("| outcome | faults |\n|---------|-------:|\n")
		labels := make([]string, 0, len(rep.Outcomes))
		for l := range rep.Outcomes {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			name := l
			if name == "" {
				name = "(none)"
			}
			fmt.Fprintf(&b, "| %s | %d |\n", name, rep.Outcomes[l])
		}
		fmt.Fprintf(&b, "\nDistinct faults analyzed: **%d**", rep.FaultsAnalyzed)
		if len(dumps) > 1 {
			fmt.Fprintf(&b, " across %d runs; duplicated between runs: **%d**", len(dumps), rep.DuplicateFaults)
		}
		b.WriteString("\n")
	}

	// ---- Latency ----
	b.WriteString("\n## Fault latency\n\n")
	if len(faultEvents) > 0 {
		durs := make([]int64, len(faultEvents))
		for i, fe := range faultEvents {
			durs[i] = fe.durUS
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		pct := func(q float64) int64 {
			i := int(q * float64(len(durs)-1))
			return durs[i]
		}
		fmt.Fprintf(&b, "Event-exact over %d faults: p50 %s, p95 %s, p99 %s, max %s.\n",
			len(durs), fmtUS(pct(0.50)), fmtUS(pct(0.95)), fmtUS(pct(0.99)), fmtUS(durs[len(durs)-1]))
	}
	if h := lastHistogram(dumps); h != nil && h.Count > 0 {
		fmt.Fprintf(&b, "Histogram estimate over %d samples: p50 %.3fs, p95 %.3fs, p99 %.3fs.\n",
			h.Count, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
	}
	if len(faultEvents) == 0 && lastHistogram(dumps) == nil {
		b.WriteString("No latency data recorded.\n")
	}

	// ---- Throughput curve ----
	b.WriteString("\n## Throughput\n\n")
	var quarterRates []float64
	if len(faultEvents) >= 2 {
		minUS, maxUS := faultEvents[0].absUS, faultEvents[0].absUS
		for _, fe := range faultEvents {
			if fe.absUS < minUS {
				minUS = fe.absUS
			}
			if fe.absUS > maxUS {
				maxUS = fe.absUS
			}
		}
		span := maxUS - minUS
		if span <= 0 {
			span = 1
		}
		const nbins = 24
		bins := make([]int, nbins)
		for _, fe := range faultEvents {
			i := int((fe.absUS - minUS) * nbins / (span + 1))
			if i >= nbins {
				i = nbins - 1
			}
			bins[i]++
		}
		peak := 0
		for _, n := range bins {
			if n > peak {
				peak = n
			}
		}
		spark := []rune("▁▂▃▄▅▆▇█")
		var line strings.Builder
		for _, n := range bins {
			idx := 0
			if peak > 0 {
				idx = n * (len(spark) - 1) / peak
			}
			line.WriteRune(spark[idx])
		}
		binSec := float64(span) / nbins / 1e6
		fmt.Fprintf(&b, "```\n%s\n```\n%d faults over %.1fs (%.2fs/bin), peak %d faults/bin.\n",
			line.String(), len(faultEvents), float64(span)/1e6, binSec, peak)

		// Quarter rates feed the collapse anomaly below.
		q := make([]int, 4)
		for _, fe := range faultEvents {
			i := int((fe.absUS - minUS) * 4 / (span + 1))
			if i >= 4 {
				i = 3
			}
			q[i]++
		}
		for _, n := range q {
			quarterRates = append(quarterRates, float64(n)/(float64(span)/4/1e6))
		}
	} else {
		b.WriteString("Too few fault events for a curve.\n")
	}

	// ---- Per-worker utilization ----
	b.WriteString("\n## Worker utilization\n\n")
	if len(workerBusyUS) > 0 {
		var spanUS int64
		for _, d := range dumps {
			spanUS += (d.DumpUnixMS - d.StartUnixMS) * 1000
		}
		if spanUS <= 0 {
			spanUS = 1
		}
		workers := make([]int, 0, len(workerBusyUS))
		for w := range workerBusyUS {
			workers = append(workers, w)
		}
		sort.Ints(workers)
		b.WriteString("| worker | busy | utilization |\n|-------:|-----:|------------:|\n")
		for _, w := range workers {
			busy := workerBusyUS[w]
			fmt.Fprintf(&b, "| %d | %s | %.0f%% |\n", w, fmtUS(busy), 100*float64(busy)/float64(spanUS))
		}
	} else {
		b.WriteString("No per-worker fault events recorded.\n")
	}

	// ---- Rescue ladder ----
	b.WriteString("\n## Rescue ladder\n\n")
	rescued := rep.Outcomes["rescued"]
	if blows1+blows2 == 0 && rescued == 0 {
		b.WriteString("No budget or node-limit blows recorded.\n")
	} else {
		fmt.Fprintf(&b, "- first-attempt blows: %d\n- retry blows: %d\n- rescued (exact after retry): %d\n",
			blows1, blows2, rescued)
		if blows1 > 0 {
			fmt.Fprintf(&b, "- ladder effectiveness: %.0f%% of blown faults recovered exactly\n",
				100*float64(rescued)/float64(blows1))
		}
		if gcPasses > 0 {
			fmt.Fprintf(&b, "- GC passes: %d, %d nodes reclaimed\n", gcPasses, gcReclaimed)
		}
		if calibs > 0 {
			fmt.Fprintf(&b, "- calibration generations published: %d\n", calibs)
		}
	}

	// ---- Top-N expensive faults ----
	fmt.Fprintf(&b, "\n## Top %d most expensive faults\n\n", opts.TopN)
	if len(faultEvents) == 0 {
		b.WriteString("No fault events recorded.\n")
	} else {
		byCost := make([]faultEvent, len(faultEvents))
		copy(byCost, faultEvents)
		sort.Slice(byCost, func(i, j int) bool {
			if byCost[i].durUS != byCost[j].durUS {
				return byCost[i].durUS > byCost[j].durUS
			}
			return byCost[i].index < byCost[j].index
		})
		if len(byCost) > opts.TopN {
			byCost = byCost[:opts.TopN]
		}
		b.WriteString("| fault | worker | outcome | duration | BDD ops |\n")
		b.WriteString("|-------|-------:|---------|---------:|--------:|\n")
		for _, fe := range byCost {
			name := opts.FaultNames[fe.index]
			if name == "" {
				name = fmt.Sprintf("#%d", fe.index)
			}
			fmt.Fprintf(&b, "| %s | %d | %s | %s | %d |\n", name, fe.worker, fe.label, fmtUS(fe.durUS), fe.ops)
		}
	}

	// ---- Checkpoint I/O ----
	b.WriteString("\n## Checkpoint I/O\n\n")
	if appends+fsyncs+len(ckptErrs) == 0 {
		b.WriteString("No checkpoint activity recorded.\n")
	} else {
		fmt.Fprintf(&b, "- appends: %d\n- fsyncs: %d\n- errors: %d\n", appends, fsyncs, len(ckptErrs))
		for _, ev := range ckptErrs {
			fmt.Fprintf(&b, "  - poisoned on %s at fault #%d (t=%s)\n", ev.Label, ev.Index, fmtUS(ev.TUS))
		}
	}
	if ck := opts.Checkpoint; ck != nil {
		fmt.Fprintf(&b, "\nCheckpoint file: %s campaign on %s, %d faults in set, %d records persisted.\n",
			ck.Kind, ck.Circuit, ck.Faults, ck.Records)
		switch {
		case rep.EventsDropped > 0:
			b.WriteString("Cross-check skipped: ring wrap dropped events.\n")
		case ck.Records < rep.FaultsAnalyzed:
			fmt.Fprintf(&b, "**Mismatch:** %d faults analyzed but only %d records persisted — "+
				"records may have been lost before an fsync.\n", rep.FaultsAnalyzed, ck.Records)
		default:
			fmt.Fprintf(&b, "Cross-check OK: %d analyzed ≤ %d persisted (resumed records fill the rest).\n",
				rep.FaultsAnalyzed, ck.Records)
		}
	}

	// ---- Scheduling ----
	b.WriteString("\n## Scheduling\n\n")
	rows := 0
	for _, d := range dumps {
		for _, c := range d.Campaigns {
			if c.GatesVisited == 0 && c.GatesSkipped == 0 {
				continue
			}
			if rows == 0 {
				b.WriteString("| campaign | gates visited | gates skipped | skip ratio |\n")
				b.WriteString("|----------|--------------:|--------------:|-----------:|\n")
			}
			rows++
			fmt.Fprintf(&b, "| %s | %d | %d | %.1f%% |\n", c.Name, c.GatesVisited, c.GatesSkipped,
				100*float64(c.GatesSkipped)/float64(c.GatesVisited+c.GatesSkipped))
		}
	}
	if rows == 0 {
		b.WriteString("No gate-walk telemetry recorded.\n")
	}
	if h := lastConeGates(dumps); h != nil && h.Count > 0 {
		fmt.Fprintf(&b, "\nMerged fan-out-cone size per fault over %d samples: p50 %.0f, p95 %.0f, p99 %.0f gates.\n",
			h.Count, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
	}
	if mean, n, ok := meanCacheHitRatio(dumps); ok {
		fmt.Fprintf(&b, "\nOp-cache hit ratio under this schedule: %.2f mean over %d timeline samples.\n", mean, n)
	}

	// ---- Chaos audit ----
	b.WriteString("\n## Chaos audit\n\n")
	rep.ChaosInjected = len(chaosEvents)
	if len(chaosEvents) == 0 {
		b.WriteString("No chaos injections recorded.\n")
	} else {
		b.WriteString("| run | point | key | correlated with |\n|----:|-------|----:|------------------|\n")
		for _, ce := range chaosEvents {
			point, key, run := ce.ev.Label, ce.ev.Index, ce.run
			var with string
			switch {
			case chaosFaultKeyed[point]:
				if perRunIdx[run][key] {
					with = fmt.Sprintf("fault #%d record in run %d", key, run+1)
				} else if point == "panic" && dumps[run].Reason == "panic" {
					with = "run ended in panic dump"
				}
			case point == "ckptwrite":
				for _, ev := range ckptErrs {
					if ev.Label == "append" {
						with = fmt.Sprintf("checkpoint append poisoning at fault #%d", ev.Index)
						break
					}
				}
			case point == "ckptsync":
				for _, ev := range ckptErrs {
					if ev.Label == "fsync" {
						with = "checkpoint fsync poisoning"
						break
					}
				}
			case point == "workerkill":
				if deathsPerRun[run] > 0 {
					with = fmt.Sprintf("worker death(s) in run %d", run+1)
				}
			case point == "hbstall":
				if stallsPerRun[run] > 0 {
					with = fmt.Sprintf("heartbeat-stall death(s) in run %d", run+1)
				} else if deathsPerRun[run] > 0 {
					with = fmt.Sprintf("worker death(s) in run %d", run+1)
				}
			case point == "shardtear":
				if resumePerRun[run] > 0 || appends > 0 {
					with = "torn checkpoint tail repaired on shard resume"
				}
			}
			if with == "" {
				with = "**uncorrelated**"
				rep.ChaosUncorrelated++
			}
			fmt.Fprintf(&b, "| %d | %s | %d | %s |\n", run+1, point, key, with)
		}
		fmt.Fprintf(&b, "\n%d injections, %d uncorrelated.\n", rep.ChaosInjected, rep.ChaosUncorrelated)
		if rep.ChaosUncorrelated > 0 && rep.EventsDropped > 0 {
			b.WriteString("Ring wrap dropped events; uncorrelated injections may be explained by overwritten records.\n")
		}
	}

	// ---- Supervision ----
	b.WriteString("\n## Supervision\n\n")
	if spawns+rep.WorkerDeaths+rep.Restarts+len(bisectEvents)+len(quarEvents) == 0 {
		b.WriteString("No supervision events recorded (single-process run).\n")
	} else {
		fmt.Fprintf(&b, "- worker launches: %d\n- worker deaths: %d\n- lease re-dispatches: %d\n- shard bisections: %d\n- quarantined faults: %d\n",
			spawns, rep.WorkerDeaths, rep.Restarts, len(bisectEvents), len(quarEvents))
		if len(deaths) > 0 {
			b.WriteString("\n| shard lo | slot | cause | exit code | faults done |\n")
			b.WriteString("|---------:|-----:|-------|----------:|------------:|\n")
			for _, ev := range deaths {
				code := "-"
				if ev.A >= 0 {
					code = fmt.Sprint(ev.A)
				}
				fmt.Fprintf(&b, "| %d | %d | %s | %s | %d |\n", ev.Index, ev.Worker, ev.Label, code, ev.B)
			}
		}
		for _, ev := range bisectEvents {
			fmt.Fprintf(&b, "\nShard at lo=%d (%d faults) bisected at global index %d.", ev.Index, ev.A, ev.B)
		}
		if len(bisectEvents) > 0 {
			b.WriteString("\n")
		}
		for _, ev := range quarEvents {
			name := opts.FaultNames[ev.Index]
			if name == "" {
				name = fmt.Sprintf("#%d", ev.Index)
			}
			fmt.Fprintf(&b, "\n**Quarantined:** fault %s isolated as an Err record after killing %d worker(s); the campaign completed around it.\n", name, ev.A)
		}
	}

	// ---- Anomalies ----
	for _, ev := range quarEvents {
		rep.Anomalies = append(rep.Anomalies, fmt.Sprintf(
			"poison fault: #%d quarantined after %d worker death(s) — reproduce with -worker-shard %d-%d to debug it in isolation",
			ev.Index, ev.A, ev.Index, ev.Index+1))
	}
	if len(quarterRates) == 4 && len(faultEvents) >= 40 {
		maxRate := quarterRates[0]
		for _, r := range quarterRates[1:] {
			if r > maxRate {
				maxRate = r
			}
		}
		if maxRate > 0 && quarterRates[3] < 0.25*maxRate {
			rep.Anomalies = append(rep.Anomalies, fmt.Sprintf(
				"throughput collapse: final quarter ran at %.1f faults/s vs %.1f peak",
				quarterRates[3], maxRate))
		}
	}
	if drop, first, second, ok := cacheDegradation(dumps); ok && drop > 0.2 {
		rep.Anomalies = append(rep.Anomalies, fmt.Sprintf(
			"cache-hit degradation: op-cache hit ratio fell from %.2f to %.2f", first, second))
	}
	if rep.EventsDropped > 0 {
		rep.Anomalies = append(rep.Anomalies, fmt.Sprintf(
			"flight ring wrapped: %d events dropped — raise the ring capacity for full history",
			rep.EventsDropped))
	}
	if rep.DuplicateFaults > 0 {
		rep.Anomalies = append(rep.Anomalies, fmt.Sprintf(
			"resume overlap: %d fault indices analyzed by more than one run", rep.DuplicateFaults))
	}
	b.WriteString("\n## Anomalies\n\n")
	if len(rep.Anomalies) == 0 {
		b.WriteString("None detected.\n")
	} else {
		for _, a := range rep.Anomalies {
			fmt.Fprintf(&b, "- %s\n", a)
		}
	}

	rep.Markdown = b.String()
	return rep, nil
}

// lastHistogram returns the fault-latency histogram of the final dump
// that carries one — across a kill-and-resume sequence only the last
// run's histogram reflects its own faults, so they are reported per-run
// rather than merged.
func lastHistogram(dumps []*obs.FlightDump) *obs.HistogramSnapshot {
	for i := len(dumps) - 1; i >= 0; i-- {
		if dumps[i].FaultLatency != nil {
			return dumps[i].FaultLatency
		}
	}
	return nil
}

// lastConeGates returns the cone-size histogram of the final dump that
// carries one, mirroring lastHistogram's per-run semantics.
func lastConeGates(dumps []*obs.FlightDump) *obs.HistogramSnapshot {
	for i := len(dumps) - 1; i >= 0; i-- {
		if dumps[i].ConeGates != nil {
			return dumps[i].ConeGates
		}
	}
	return nil
}

// meanCacheHitRatio averages the op-cache hit ratio across every timeline
// sample that carries one; ok is false when no sample does.
func meanCacheHitRatio(dumps []*obs.FlightDump) (mean float64, n int, ok bool) {
	var sum float64
	for _, d := range dumps {
		for _, s := range d.Timeline {
			if s.CacheHitRatio > 0 {
				sum += s.CacheHitRatio
				n++
			}
		}
	}
	if n == 0 {
		return 0, 0, false
	}
	return sum / float64(n), n, true
}

// cacheDegradation compares the mean op-cache hit ratio of the first and
// second halves of the concatenated timeline. ok is false when fewer
// than four samples carry a ratio.
func cacheDegradation(dumps []*obs.FlightDump) (drop, first, second float64, ok bool) {
	var samples []float64
	for _, d := range dumps {
		for _, s := range d.Timeline {
			if s.CacheHitRatio > 0 {
				samples = append(samples, s.CacheHitRatio)
			}
		}
	}
	if len(samples) < 4 {
		return 0, 0, 0, false
	}
	half := len(samples) / 2
	mean := func(xs []float64) float64 {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	first, second = mean(samples[:half]), mean(samples[half:])
	return first - second, first, second, true
}

// fmtUS renders a µs quantity with a human unit.
func fmtUS(us int64) string {
	switch {
	case us >= 10_000_000:
		return fmt.Sprintf("%.1fs", float64(us)/1e6)
	case us >= 10_000:
		return fmt.Sprintf("%.1fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}
