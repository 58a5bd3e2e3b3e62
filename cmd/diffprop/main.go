// Command diffprop runs exact Difference Propagation fault analysis on a
// single circuit and prints a per-fault report: exact detectability,
// syndrome/excitation bound, adherence, observable outputs, and one
// extracted test vector per detectable fault.
//
// Usage:
//
//	diffprop -circuit alu181                  # collapsed checkpoint stuck-ats
//	diffprop -circuit c95s -model and         # wired-AND bridging faults
//	diffprop -bench my.bench -model or -max 50
//	diffprop -circuit c17 -summary            # aggregates only
//	diffprop -circuit c1908s -stride 10       # every 10th fault of the list
//	diffprop -circuit c1355s -budget 2000000               # degrade hard faults
//	diffprop -circuit c1908s -budget 200000 -retrybudget 16  # rescue blown faults
//	GOMEMLIMIT=2GiB diffprop -circuit c1908s -nodelimit 500000      # bound memory
//	diffprop -circuit c1355s -checkpoint run.jsonl         # persist records
//	diffprop -circuit c1355s -checkpoint run.jsonl -resume # continue after a crash
//	diffprop -circuit c1355s -checkpoint run.jsonl -resume -retry-degraded  # re-attempt degraded faults
//	diffprop -circuit c1355s -http :6060 -log info         # live /metrics, /progress, pprof
//	diffprop -circuit c1355s -trace run.trace -traceformat chrome   # per-fault trace events
//
// An interrupt (Ctrl-C) cancels the campaign between faults: the partial
// study is reported, finished records stay in the checkpoint, and a later
// -resume run completes the set with bit-identical results. A second
// interrupt forces immediate exit (a wedged fault analysis cannot block
// the first, graceful cancellation).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/bdd"
	"repro/internal/campaignflags"
	"repro/internal/chaos"
	"repro/internal/circuits"
	"repro/internal/diffprop"
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/report"
	"repro/internal/supervise"
)

// shutdownObs flushes the trace file, stops the timeline sampler and the
// debug server; dumpFlight writes the -flight post-mortem dump. main exits
// through os.Exit on several paths, so fatal and finishCampaign call them
// explicitly. Both are idempotent (see campaignflags.Session).
var (
	shutdownObs = func() {}
	dumpFlight  = func(reason string) {}
)

func main() {
	var (
		circuit   = flag.String("circuit", "", "built-in circuit name (see cmd/benchgen -list)")
		bench     = flag.String("bench", "", "path to an ISCAS-85 .bench netlist")
		model     = flag.String("model", "stuckat", "fault model: stuckat, and, or")
		max       = flag.Int("max", 0, "analyze at most this many faults (0 = all)")
		stride    = flag.Int("stride", 1, "analyze every k-th fault of the stuck-at list or bridging set, before -max (1 = all)")
		maxBFs    = flag.Int("maxbfs", 1000, "bridging fault sample ceiling")
		theta     = flag.Float64("theta", 0.3, "exponential distance parameter for sampling")
		seed      = flag.Int64("seed", 1990, "sampling seed")
		summary   = flag.Bool("summary", false, "print aggregates only")
		dotOut    = flag.String("dot", "", "write the first analyzed fault's complete-test-set BDD as Graphviz DOT to this file")
		ckptPath  = flag.String("checkpoint", "", "persist finished records to this JSONL file as they complete")
		resume    = flag.Bool("resume", false, "continue from the -checkpoint file, skipping already-persisted faults")
		retryDegr = flag.Bool("retry-degraded", false, "with -resume: re-attempt checkpointed Approximate/error/skipped faults instead of carrying them forward")
		calibJSON = flag.String("calibjson", "", "write the final calibration state (armed budget, retry multiplier, updates) as JSON to this file")
		chaosSpec = flag.String("chaos", "", "deterministic fault-injection spec, e.g. 'seed=7;budget:p=0.35;latency:p=0.2,d=2ms' (see internal/chaos)")

		shardProcs = flag.Int("shard-procs", 0, "supervisor: cap on concurrently running shard workers (0 = all shards at once)")
		hbTimeout  = flag.Duration("hb-timeout", supervise.DefaultHeartbeatTimeout, "supervisor: SIGKILL a worker after this much protocol silence and re-dispatch its shard (workers heartbeat every min(1s, timeout/4))")
		maxRestart = flag.Int("max-restarts", supervise.DefaultMaxRestarts, "supervisor: per-shard worker restarts before bisecting toward poison-fault quarantine (-1 = escalate on the first death)")

		workerShard   = flag.String("worker-shard", "", "internal: run as a shard worker over global faults lo-hi; the supervisor owns stdout (JSONL protocol) and stdin (orphan watchdog)")
		workerAttempt = flag.Int("worker-attempt", 0, "internal: this worker's restart attempt (gates one-shot chaos process points)")
	)
	cf := campaignflags.Register(flag.CommandLine, 1)
	flag.Parse()

	if *resume && *ckptPath == "" {
		fatal(fmt.Errorf("-resume needs -checkpoint <file>"))
	}
	if *retryDegr && !*resume {
		fatal(fmt.Errorf("-retry-degraded needs -resume (it re-attempts faults restored from the checkpoint)"))
	}
	if *workerShard != "" && cf.Shards > 0 {
		fatal(fmt.Errorf("-worker-shard and -shards are mutually exclusive (one process is either a worker or its supervisor)"))
	}
	if (*workerShard != "" || cf.Shards > 0) && *ckptPath == "" {
		fatal(fmt.Errorf("-shards/-worker-shard need -checkpoint <file>"))
	}
	if *stride < 1 {
		fatal(fmt.Errorf("-stride %d is below 1", *stride))
	}
	if *hbTimeout > 0 && *hbTimeout < time.Millisecond {
		// The stall watchdog and the workers' heartbeat tick at fractions of it.
		fatal(fmt.Errorf("-hb-timeout %v is below 1ms", *hbTimeout))
	}
	if cf.Shards > 0 && *resume {
		fmt.Fprintln(os.Stderr, "diffprop: note: -resume is implicit under -shards (per-shard checkpoints in -shard-dir resume automatically)")
	}
	ccfg := cf.Campaign()
	chaosCfg, err := chaos.Parse(*chaosSpec)
	if err != nil {
		fatal(fmt.Errorf("-chaos: %w", err))
	}

	sess, err := cf.StartObs("diffprop")
	if err != nil {
		fatal(err)
	}
	shutdownObs, dumpFlight = sess.Shutdown, sess.DumpFlight
	o := sess.Observer
	// A panic anywhere below still produces the flight dump — the whole
	// point of a flight recorder — before the panic propagates.
	defer func() {
		if r := recover(); r != nil {
			dumpFlight("panic")
			shutdownObs()
			panic(r)
		}
	}()

	c, err := loadCircuit(*circuit, *bench)
	if err != nil {
		fatal(err)
	}
	// The working two-input circuit every fault site refers to: the same
	// decomposition each campaign engine (and shard worker) builds.
	w := c.Decompose2()
	if *workerShard == "" {
		// Workers keep stdout clean: it is the supervision protocol pipe.
		fmt.Printf("circuit: %s (analyzed as %d two-input gates, %d PIs, %d POs)\n\n",
			c, w.NumGates(), len(w.Inputs), len(w.Outputs))
	}

	// First SIGINT cancels the campaign gracefully between faults; a second
	// forces immediate exit so a wedged analysis cannot hold the process
	// hostage. signal.NotifyContext would swallow the repeat Ctrl-C.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "diffprop: interrupt: finishing in-flight faults, then reporting partial results (interrupt again to exit immediately)")
		cancel()
		<-sigCh
		fmt.Fprintln(os.Stderr, "diffprop: second interrupt: exiting now; partial results were not reported, but checkpointed records (if any) remain valid for -resume")
		dumpFlight("interrupt")
		shutdownObs()
		os.Exit(130)
	}()

	ccfg.Context = ctx
	ccfg.Obs = o
	ccfg.Chaos = chaosCfg
	if cf.Verbose {
		ccfg.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d faults", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	flags := workerFlagSet{
		circuit: *circuit, bench: *bench, model: *model,
		stride: *stride, max: *max, maxBFs: *maxBFs, theta: *theta, seed: *seed,
		campaign:  ccfg,
		chaosSpec: *chaosSpec, logLevel: cf.LogLevel, logJSON: cf.LogJSON,
	}
	camp, err := newCampaign(w, flags)
	if err != nil {
		fatal(err)
	}
	if *workerShard != "" {
		wm := &workerMode{
			shard:    *workerShard,
			attempt:  *workerAttempt,
			hbEvery:  heartbeatPeriod(*hbTimeout),
			ckptPath: *ckptPath,
			chaosCfg: chaosCfg,
			ccfg:     ccfg,
		}
		wm.run(c, camp) // exits the process
	}
	if camp.cut > 0 {
		// Shard workers select the same list silently, so a supervised
		// campaign warns once, from its supervisor.
		fmt.Fprintf(os.Stderr, "diffprop: warning: -max truncates the fault set from %d to %d faults; aggregates cover the truncated set only\n", camp.faults+camp.cut, *max)
	}

	var res result
	if cf.Shards > 0 {
		sup := &supervisorMode{
			shards:      cf.Shards,
			procs:       *shardProcs,
			dir:         cf.ShardDir,
			hbTimeout:   *hbTimeout,
			maxRestarts: *maxRestart,
			binary:      cf.WorkerBinary,
			ckptPath:    *ckptPath,
			verbose:     cf.Verbose,
			obs:         o,
			flags:       flags,
		}
		res = sup.run(ctx, c, camp, ccfg)
	} else {
		cp := openCheckpoint(*ckptPath, *resume, *retryDegr, camp.header(0, camp.faults), &ccfg)
		res, err = camp.run(c, 0, camp.faults, ccfg)
		closeCheckpoint(cp)
		if err != nil {
			fatal(err)
		}
	}
	if cf.Verbose {
		fmt.Fprintln(os.Stderr, res.stats)
	}
	// Campaigns build their own engines; this one serves only -dot and
	// the per-fault test-vector column.
	var e *diffprop.Engine
	engine := func() *diffprop.Engine {
		if e == nil {
			if e, err = diffprop.New(c, nil); err != nil {
				fatal(err)
			}
		}
		return e
	}
	if *dotOut != "" && camp.faults > 0 {
		name, complete := camp.first(engine())
		if err := os.WriteFile(*dotOut, []byte(engine().Manager().DOT(name, complete)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (complete test set of %s)\n", *dotOut, name)
	}
	res.print(*summary, engine)
	writeCalibJSON(*calibJSON, c.Name, res.stats)
	finishCampaign(res)
}

// campaign is the fault set one -model selects on the working circuit,
// with the calls that differ between fault models. The in-process run,
// the -shards supervisor and every shard worker build it with
// newCampaign, so all of them analyze the same list; it is also the
// supervisor's Store.
type campaign struct {
	// faults counts the faults after -stride and -max; cut counts the
	// faults -max dropped.
	faults, cut int
	// header fingerprints the faults [lo, hi).
	header func(lo, hi int) analysis.CheckpointHeader
	// failed is fault i's record after its analysis failed with msg.
	failed func(i int, msg string) any
	// first names the first fault and returns its complete test set on e.
	first func(e *diffprop.Engine) (string, bdd.Ref)
	// run analyzes the faults [lo, hi) of c.
	run func(c *netlist.Circuit, lo, hi int, ccfg analysis.CampaignConfig) (result, error)
}

// result is a finished campaign as diffprop reports it.
type result struct {
	stats    analysis.CampaignStats
	errs     []analysis.FaultError
	degraded []analysis.DegradedFault
	// analyzed counts the records not marked Skipped.
	analyzed int
	// print writes the per-fault table (unless summary) and the aggregate
	// lines; engine serves the table's test-vector column.
	print func(summary bool, engine func() *diffprop.Engine)
}

// newCampaign selects the fault set of f.model on the working circuit w:
// the collapsed checkpoint stuck-at list or the bridging set, strided and
// cut by -stride and -max.
func newCampaign(w *netlist.Circuit, f workerFlagSet) (campaign, error) {
	switch model := strings.ToLower(f.model); model {
	case "stuckat", "sa":
		fs, cut := selectFaults(faults.CheckpointStuckAts(w), f.stride, f.max)
		return campaign{
			faults: len(fs), cut: cut,
			header: func(lo, hi int) analysis.CheckpointHeader { return analysis.StuckAtCheckpointHeader(w, fs[lo:hi]) },
			failed: func(i int, msg string) any { return analysis.StuckAtRecord{Fault: fs[i], Err: msg} },
			first: func(e *diffprop.Engine) (string, bdd.Ref) {
				return fs[0].Describe(w), e.StuckAt(fs[0]).Complete
			},
			run: func(c *netlist.Circuit, lo, hi int, ccfg analysis.CampaignConfig) (result, error) {
				study, err := analysis.RunStuckAtCampaign(c, nil, fs[lo:hi], ccfg)
				res := result{stats: study.Stats, errs: study.Errors(), degraded: study.DegradedFaults()}
				for _, r := range study.Records {
					if !r.Skipped {
						res.analyzed++
					}
				}
				res.print = func(summary bool, engine func() *diffprop.Engine) {
					if !summary {
						printStuckAt(engine(), w, study)
					}
					fmt.Printf("faults: %d   detectable: %.1f%%   mean detectability (detectable): %.4f   observed==fed rate: %.3f\n",
						len(study.Records), 100*study.CoverageRate(), study.MeanDetectable(), study.ObservedEqualsFedRate())
					fmt.Printf("selective trace: %.1f of %d gates evaluated per fault on average\n",
						study.MeanGatesEvaluated(), w.NumGates())
				}
				return res, err
			},
		}, nil
	case "and", "or":
		kind := faults.WiredAND
		if model == "or" {
			kind = faults.WiredOR
		}
		set, pop, sampled := analysis.BridgingSet(w, kind, f.maxBFs, f.theta, f.seed)
		set, cut := selectFaults(set, f.stride, f.max)
		return campaign{
			faults: len(set), cut: cut,
			header: func(lo, hi int) analysis.CheckpointHeader { return analysis.BridgingCheckpointHeader(w, set[lo:hi]) },
			failed: func(i int, msg string) any { return analysis.BridgingRecord{Fault: set[i], Err: msg} },
			first: func(e *diffprop.Engine) (string, bdd.Ref) {
				return set[0].Describe(w), e.Bridging(set[0]).Complete
			},
			run: func(c *netlist.Circuit, lo, hi int, ccfg analysis.CampaignConfig) (result, error) {
				study, err := analysis.RunBridgingCampaign(c, nil, set[lo:hi], kind, pop, sampled, ccfg)
				res := result{stats: study.Stats, errs: study.Errors(), degraded: study.DegradedFaults()}
				for _, r := range study.Records {
					if !r.Skipped {
						res.analyzed++
					}
				}
				res.print = func(summary bool, _ func() *diffprop.Engine) {
					if !summary {
						printBridging(w, study)
					}
					fmt.Printf("faults: %d of %d potentially detectable NFBFs (sampled: %v)\n", len(study.Records), pop, sampled)
					fmt.Printf("detectable: %.1f%%   mean detectability (detectable): %.4f   stuck-at behavior: %.1f%%\n",
						100*study.CoverageRate(), study.MeanDetectable(), 100*study.StuckAtProportion())
				}
				return res, err
			},
		}, nil
	}
	return campaign{}, fmt.Errorf("unknown fault model %q (stuckat, and, or)", f.model)
}

// Header is the checkpoint header of the shard covering faults [lo, hi).
func (k campaign) Header(lo, hi int) analysis.CheckpointHeader {
	return k.header(lo, hi).WithShard(lo, hi)
}

// QuarantineRecord is the error record persisted for a poison fault.
func (k campaign) QuarantineRecord(global int) (json.RawMessage, error) {
	return json.Marshal(k.failed(global, quarantineErr))
}

// selectFaults keeps every stride-th fault of fs from the first (stride
// <= 1 keeps them all), then cuts that list to its first max faults (max
// <= 0 keeps them all) and reports how many the cut dropped. The
// in-process run and every shard worker select through it, so both
// analyze the same list.
func selectFaults[F any](fs []F, stride, max int) (kept []F, cut int) {
	kept = fs
	if stride > 1 {
		kept = make([]F, 0, (len(fs)+stride-1)/stride)
		for i := 0; i < len(fs); i += stride {
			kept = append(kept, fs[i])
		}
	}
	if max > 0 && len(kept) > max {
		return kept[:max], len(kept) - max
	}
	return kept, 0
}

// openCheckpoint wires the checkpoint file (if any) into the campaign
// config: fresh creation by default, validated resume with -resume. With
// retryDegraded, restored Approximate/error/skipped records are dropped
// so the campaign re-attempts those faults; the re-run records append
// after the originals and win on the next load.
func openCheckpoint(path string, resume, retryDegraded bool, hdr analysis.CheckpointHeader, ccfg *analysis.CampaignConfig) *analysis.Checkpointer {
	if path == "" {
		return nil
	}
	if resume {
		cp, records, err := analysis.ResumeCheckpoint(path, hdr)
		if err != nil {
			fatal(err)
		}
		retrying := 0
		if retryDegraded {
			retrying, err = analysis.DropDegradedRecords(records)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", path, err))
			}
			if retrying > 0 {
				fmt.Fprintf(os.Stderr, "diffprop: re-attempting %d degraded/errored fault(s) from %s\n", retrying, path)
			}
		}
		if len(records) > 0 {
			fmt.Fprintf(os.Stderr, "diffprop: resuming %s: %d of %d faults already analyzed\n", path, len(records), hdr.Faults)
		}
		ccfg.Checkpoint = cp
		ccfg.Resume = records
		return cp
	}
	cp, err := analysis.CreateCheckpoint(path, hdr)
	if err != nil {
		fatal(err)
	}
	ccfg.Checkpoint = cp
	return cp
}

// closeCheckpoint flushes the checkpoint; main exits through os.Exit, so
// this cannot be left to a defer.
func closeCheckpoint(cp *analysis.Checkpointer) {
	if cp == nil {
		return
	}
	if err := cp.Close(); err != nil {
		fatal(err)
	}
}

// writeCalibJSON persists the campaign's final calibration state (the
// -calibjson flag) so CI can publish the self-tuned bounds as an artifact
// next to the benchmark numbers.
func writeCalibJSON(path, circuit string, stats analysis.CampaignStats) {
	if path == "" {
		return
	}
	out, err := json.MarshalIndent(struct {
		Circuit         string  `json:"circuit"`
		Faults          int     `json:"faults"`
		Degraded        int     `json:"degraded"`
		Rescued         int     `json:"rescued"`
		BudgetOps       int64   `json:"calibration_budget_ops"`
		RetryMultiplier float64 `json:"calibration_retry_multiplier"`
		Updates         int     `json:"calibration_updates"`
	}{
		Circuit:         circuit,
		Faults:          stats.Faults,
		Degraded:        stats.Degraded,
		Rescued:         stats.Rescued,
		BudgetOps:       stats.CalibrationBudgetOps,
		RetryMultiplier: stats.CalibrationRetryMult,
		Updates:         stats.CalibrationUpdates,
	}, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "diffprop: wrote calibration state to %s\n", path)
}

// finishCampaign reports degradation/cancellation on stderr and exits
// non-zero when any per-fault analysis failed. The degraded and error
// lists come pre-sorted by fault index, so this output is deterministic
// regardless of how the workers interleaved. The degraded list is read
// off the records, not the run's counters, so faults degraded by shard
// workers or by the run a checkpoint resumes are listed too.
func finishCampaign(res result) {
	dumpFlight("completed")
	shutdownObs()
	if res.stats.Rescued > 0 {
		fmt.Fprintf(os.Stderr, "diffprop: recovery ladder rescued %d of %d budget-blown fault(s) to exact results\n", res.stats.Rescued, res.stats.Retried)
	}
	if len(res.degraded) > 0 {
		fmt.Fprintf(os.Stderr, "diffprop: %d fault(s) blew the per-fault budget; their detectabilities are random-vector estimates (marked ~):\n", len(res.degraded))
		const maxListed = 20
		for i, d := range res.degraded {
			if i == maxListed {
				fmt.Fprintf(os.Stderr, "  ... and %d more\n", len(res.degraded)-maxListed)
				break
			}
			fmt.Fprintf(os.Stderr, "  %s\n", d)
		}
	}
	if res.stats.Canceled {
		fmt.Fprintln(os.Stderr, "diffprop: campaign cancelled; unanalyzed faults are marked skipped")
	}
	if len(res.errs) > 0 {
		fmt.Fprintf(os.Stderr, "diffprop: %d fault(s) failed to analyze:\n", len(res.errs))
		for _, fe := range res.errs {
			fmt.Fprintf(os.Stderr, "  %s\n", fe)
		}
		os.Exit(2)
	}
}

func loadCircuit(name, bench string) (*netlist.Circuit, error) {
	switch {
	case name != "" && bench != "":
		return nil, fmt.Errorf("pass either -circuit or -bench, not both")
	case name != "":
		return circuits.Get(name)
	case bench != "":
		f, err := os.Open(bench)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return netlist.ParseBench(bench, f)
	default:
		return nil, fmt.Errorf("pass -circuit <name> or -bench <file>")
	}
}

func printStuckAt(e *diffprop.Engine, w *netlist.Circuit, study analysis.StuckAtStudy) {
	t := report.Table{
		Columns: []string{"fault", "detect", "bound", "adher", "POs obs/fed", "toPO", "test"},
	}
	for _, r := range study.Records {
		var test string
		switch {
		case r.Skipped:
			t.Rows = append(t.Rows, []string{r.Fault.Describe(w), "(skipped)", "", "", "", "", ""})
			continue
		case r.Err != "":
			t.Rows = append(t.Rows, []string{r.Fault.Describe(w), "(error)", "", "", "", "", r.Err})
			continue
		case r.Approximate:
			// The exact complete test set was never built, so there is no
			// vector to extract; the detectability is an estimate.
			test = fmt.Sprintf("(estimate over %d vectors)", r.EstimateVectors)
		case r.Detectable():
			res := e.StuckAt(r.Fault)
			test = vectorString(e, res)
		default:
			test = "(redundant)"
		}
		adher := "-"
		if r.AdherenceOK {
			adher = fmt.Sprintf("%.3f", r.Adherence)
		}
		detect := fmt.Sprintf("%.4f", r.Detectability)
		if r.Approximate {
			detect = "~" + detect
		}
		t.Rows = append(t.Rows, []string{
			r.Fault.Describe(w),
			detect,
			fmt.Sprintf("%.4f", r.UpperBound),
			adher,
			fmt.Sprintf("%d/%d", r.ObservedPOs, r.POsFed),
			fmt.Sprintf("%d", r.MaxLevelsToPO),
			test,
		})
	}
	fmt.Println(t.Text())
}

func printBridging(w *netlist.Circuit, study analysis.BridgingStudy) {
	t := report.Table{
		Columns: []string{"fault", "detect", "bound", "adher", "POs obs/fed", "stuck-at?"},
	}
	for _, r := range study.Records {
		switch {
		case r.Skipped:
			t.Rows = append(t.Rows, []string{r.Fault.Describe(w), "(skipped)", "", "", "", ""})
			continue
		case r.Err != "":
			t.Rows = append(t.Rows, []string{r.Fault.Describe(w), "(error)", "", "", "", r.Err})
			continue
		}
		adher := "-"
		if r.AdherenceOK {
			adher = fmt.Sprintf("%.3f", r.Adherence)
		}
		sa := ""
		if r.ActsStuckAt {
			sa = "yes"
		}
		detect := fmt.Sprintf("%.4f", r.Detectability)
		if r.Approximate {
			detect = "~" + detect
		}
		t.Rows = append(t.Rows, []string{
			r.Fault.Describe(w),
			detect,
			fmt.Sprintf("%.4f", r.UpperBound),
			adher,
			fmt.Sprintf("%d/%d", r.ObservedPOs, r.POsFed),
			sa,
		})
	}
	fmt.Println(t.Text())
}

// vectorString extracts one test from the complete test set and renders it
// in primary-input declaration order.
func vectorString(e *diffprop.Engine, res diffprop.Result) string {
	cube := e.Manager().AnySat(res.Complete)
	if cube == nil {
		return "(redundant)"
	}
	v2i := e.VarToInput()
	out := make([]byte, len(cube))
	for i := range out {
		out[i] = '-'
	}
	for v, s := range cube {
		if v2i[v] < 0 {
			continue
		}
		switch s {
		case 0:
			out[v2i[v]] = '0'
		case 1:
			out[v2i[v]] = '1'
		}
	}
	return string(out[:len(e.Circuit.Inputs)])
}

func fatal(err error) {
	// A CheckpointError (or any campaign abort) still gets its post-mortem:
	// dump before tearing observability down.
	dumpFlight("error")
	shutdownObs()
	fmt.Fprintln(os.Stderr, "diffprop:", err)
	os.Exit(1)
}
