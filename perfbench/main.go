// Command perfbench is the repository's campaign benchmark. It runs one
// workload from a seed, checks every fault record against a serial
// reference, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as the last line of standard output:
//
//	bash perfbench/run.sh --workload sa-c1908 --seed 7 --seconds 30 --trace 0
//
// Each measured repetition runs in a fresh process, so peak RSS and CPU
// time are that repetition's own. README.md lists the workloads and what
// every metric is expected to move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minReps is the fewest measured repetitions per run, so that every
// reported value is a median of at least three.
const minReps = 3

// maxReps caps repetitions on workloads much shorter than -seconds.
const maxReps = 40

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed     = flag.Int64("seed", 1, "seed the workload's fault sets are drawn from")
		seconds  = flag.Int("seconds", 30, "measure repetitions for about this long")
		traceOn  = flag.Int("trace", 0, "1 = one traced run reporting the per-layer metrics")
		diffprop = flag.String("diffprop", "", "cmd/diffprop binary driven by the sharded workload")
		workdir  = flag.String("workdir", ".bench_build", "directory for checkpoints, traces and child results")

		child = flag.String("child", "", "internal: run as a child (rep, ref or trace)")
		t0    = flag.Int64("t0", 0, "internal: parent's clock (Unix ns) just before it started this child")
		out   = flag.String("out", "", "internal: child result file")
		ckpt  = flag.String("ckpt", "", "internal: reference checkpoint to write")
		spans = flag.String("spans", "", "internal: file the traced child writes its spans to")
	)
	flag.Parse()

	if *child != "" {
		if err := runChild(*child, *workload, *seed, *t0, *out, *ckpt, *spans, *workdir, *diffprop); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := validate(*workload, *seconds, *traceOn, *diffprop); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("run-%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o := &orchestrator{workload: *workload, seed: *seed, seconds: *seconds, self: self, diffprop: *diffprop, dir: dir, workdir: *workdir}
	var res result
	if *traceOn == 1 {
		res, err = o.traced()
	} else {
		res, err = o.measure()
	}
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func validate(workload string, seconds, traceOn int, diffprop string) error {
	known := false
	for _, w := range workloadNames {
		known = known || w == workload
	}
	switch {
	case !known:
		return fmt.Errorf("unknown -workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	case seconds < 1:
		return fmt.Errorf("-seconds must be at least 1")
	case traceOn != 0 && traceOn != 1:
		return fmt.Errorf("-trace must be 0 or 1")
	case workload == wlShards && diffprop == "":
		return fmt.Errorf("-workload %s needs -diffprop <binary>", wlShards)
	}
	return nil
}

// runChild runs one child mode and writes its JSON result to out.
func runChild(mode, workload string, seed, t0 int64, out, ckpt, spans, dir, diffprop string) error {
	var (
		v   any
		err error
	)
	switch mode {
	case "rep":
		v, err = childRep(workload, seed, t0, dir)
	case "ref":
		v, err = childRef(workload, seed, ckpt)
	case "trace":
		v, err = childTrace(workload, seed, dir, diffprop, spans)
	default:
		err = fmt.Errorf("unknown -child mode %q", mode)
	}
	if err != nil {
		return err
	}
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(out, buf, 0o644)
}

// orchestrator drives one benchmark run. It does no analysis itself: every
// measured or reference campaign runs in a child process.
type orchestrator struct {
	workload string
	seed     int64
	seconds  int
	self     string
	diffprop string
	dir      string
	workdir  string
	children int
}

// child runs this binary in a child mode, decodes its result into v, and
// returns the kernel's accounting of the process.
func (o *orchestrator) child(mode string, v any, extra ...string) (procStats, error) {
	o.children++
	out := filepath.Join(o.dir, fmt.Sprintf("child-%d-%s.json", o.children, mode))
	args := append([]string{"-child", mode, "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-out", out, "-workdir", o.dir, "-diffprop", o.diffprop}, extra...)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	start := time.Now()
	cmd := exec.CommandContext(ctx, o.self, append(args, "-t0", strconv.FormatInt(start.UnixNano(), 10))...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return procStats{}, fmt.Errorf("child %s: %w", mode, err)
	}
	st := statsOf(cmd.ProcessState, time.Since(start))
	buf, err := os.ReadFile(out)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(buf, v)
}

// reference runs the serial reference for the seed. The C1908 workloads
// also get its checkpoint, the byte-for-byte target of a sharded run.
func (o *orchestrator) reference() (refResult, string, error) {
	var ref refResult
	var ckpt string
	extra := []string{}
	if o.workload != wlCatalog {
		ckpt = filepath.Join(o.dir, "reference.jsonl")
		extra = append(extra, "-ckpt", ckpt)
	}
	if _, err := o.child("ref", &ref, extra...); err != nil {
		return ref, "", err
	}
	return ref, ckpt, nil
}

// check counts the records that differ from the reference, plus one for a
// merged checkpoint whose bytes differ from the reference checkpoint while
// its records agree (a header difference).
func check(ref refResult, hashes map[string][]string, merged, refCkpt string) (int, error) {
	failed := 0
	for key, want := range ref.Hashes {
		failed += countMismatches(hashes[key], want)
	}
	if merged != "" {
		got, err := os.ReadFile(merged)
		if err != nil {
			return failed, err
		}
		want, err := os.ReadFile(refCkpt)
		if err != nil {
			return failed, err
		}
		if string(got) != string(want) && failed == 0 {
			failed = 1
		}
	}
	return failed, nil
}

// sample is one measured repetition.
type sample struct {
	faultsPerS, setupS, rssMB, cpuS float64
	faults, failed                  int
}

// rep runs one measured repetition and checks it against the reference.
func (o *orchestrator) rep(i int, ref refResult, refCkpt string) (sample, error) {
	dir := filepath.Join(o.dir, fmt.Sprintf("rep-%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return sample{}, err
	}
	defer os.RemoveAll(dir)
	if o.workload == wlShards {
		cs, err := buildCampaigns(o.workload, o.seed, nil)
		if err != nil {
			return sample{}, err
		}
		run, err := runSharded(o.diffprop, dir, cs[0], "")
		if err != nil {
			return sample{}, err
		}
		hashes, err := checkpointHashes(run.merged)
		if err != nil {
			return sample{}, err
		}
		failed, err := check(ref, map[string][]string{cs[0].key: hashes}, run.merged, refCkpt)
		n := cs[0].size()
		return sample{faultsPerS: float64(n) / run.campaignS(), setupS: run.setupS, rssMB: run.proc.RSSMB,
			cpuS: run.proc.CPUS, faults: n, failed: failed}, err
	}
	var r repResult
	st, err := o.child("rep", &r, "-workdir", dir)
	if err != nil {
		return sample{}, err
	}
	failed, err := check(ref, r.Hashes, "", "")
	return sample{faultsPerS: float64(r.Faults) / r.CampaignS, setupS: r.SetupS, rssMB: st.RSSMB,
		cpuS: st.CPUS, faults: r.Faults, failed: failed + r.Bad}, err
}

// measure is the untraced run: the reference, then repetitions for about
// -seconds (at least minReps), reporting medians. A repetition starts only
// while the measured time, plus half a mean repetition, fits in -seconds,
// so a run overshoots by half a repetition at most on average and its
// length does not depend on how the last repetition falls.
func (o *orchestrator) measure() (result, error) {
	ref, refCkpt, err := o.reference()
	if err != nil {
		return result{}, err
	}
	var samples []sample
	deadline := time.Duration(o.seconds) * time.Second
	start := time.Now()
	for i := 0; i < maxReps; i++ {
		if elapsed := time.Since(start); i >= minReps && elapsed+elapsed/time.Duration(2*i) > deadline {
			break
		}
		s, err := o.rep(i, ref, refCkpt)
		if err != nil {
			return result{}, err
		}
		fmt.Printf("  rep %d: faults_per_s %.6g setup_s %.6g peak_rss_mb %.6g cpu_s %.6g failed %d\n",
			i, s.faultsPerS, s.setupS, s.rssMB, s.cpuS, s.failed)
		samples = append(samples, s)
	}
	res := result{Metrics: map[string]metric{}}
	cols := map[string][]float64{}
	for _, s := range samples {
		res.Attempted += s.faults
		res.Failed += s.failed
		cols["faults_per_s"] = append(cols["faults_per_s"], s.faultsPerS)
		cols["setup_s"] = append(cols["setup_s"], s.setupS)
		cols["peak_rss_mb"] = append(cols["peak_rss_mb"], s.rssMB)
		cols["cpu_s"] = append(cols["cpu_s"], s.cpuS)
	}
	res.Failed += ref.OracleMismatch
	res.Correct = res.Failed == 0
	fmt.Printf("%s seed=%d reps=%d faults/rep=%d oracle-checked=%d\n", o.workload, o.seed, len(samples), samples[0].faults, ref.OracleChecked)
	for _, m := range endToEnd {
		v := cols[m.name]
		q1, med, q3 := quartiles(v)
		res.Metrics[m.name] = metric{Value: med, Unit: m.unit}
		fmt.Printf("  %-13s median %.6g %s  [q1 %.6g, q3 %.6g]  over %d reps\n", m.name, med, m.unit, q1, q3, len(v))
	}
	fmt.Printf("  %-13s %.6g  (%d failed of %d attempted)\n", "fail_ratio", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	return res, nil
}

// traced is the traced run: one traced child reports the per-layer
// metrics; one untraced repetition of the same seed gives the tracing
// overhead.
func (o *orchestrator) traced() (result, error) {
	ref, refCkpt, err := o.reference()
	if err != nil {
		return result{}, err
	}
	var tr traceOut
	spans := filepath.Join(o.workdir, "traces", fmt.Sprintf("%s-%d.json", o.workload, o.seed))
	if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
		return result{}, err
	}
	if _, err := o.child("trace", &tr, "-spans", spans); err != nil {
		return result{}, err
	}
	failed, err := check(ref, tr.Hashes, tr.Merged, refCkpt)
	if err != nil {
		return result{}, err
	}
	untraced, err := o.rep(0, ref, refCkpt)
	if err != nil {
		return result{}, err
	}
	tr.Metrics["trace.overhead_ratio"] = untraced.faultsPerS / tr.FaultsPerS
	res := result{
		Attempted: tr.Faults + untraced.faults,
		Failed:    failed + tr.Bad + untraced.failed + ref.OracleMismatch,
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0
	fmt.Printf("%s seed=%d traced run, spans in %s\n", o.workload, o.seed, spans)
	for _, m := range perLayer {
		v := tr.Metrics[m.name]
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Printf("  %-30s %.6g %s\n", m.name, v, m.unit)
	}
	return res, nil
}

// quartiles returns the first quartile, median and third quartile. From
// three values up they match Python's statistics.quantiles(n=4) (the
// exclusive method); fewer values clamp to the extremes.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		// Position p*(n+1) on the 1-based order statistics, clamped.
		x := p * float64(n+1)
		j := int(x)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (x-float64(j))*(s[j]-s[j-1])
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return at(0.25), med, at(0.75)
}
