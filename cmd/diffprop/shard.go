// Sharded campaign modes: the -shards supervisor (partition the fault
// set, supervise worker subprocesses, merge bit-identical results) and
// the internal -worker-shard worker (analyze one shard, speak the JSONL
// protocol on stdout, die loudly rather than run orphaned).
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/campaignflags"
	"repro/internal/chaos"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/supervise"
)

// quarantineErr is the deterministic Err message stamped on a poison
// fault's record: same fault, same message, every rerun.
const quarantineErr = "quarantined: fault repeatedly killed its worker process"

// Worker exit codes (beyond main's 0 = done, 1 = fatal, 130 = double
// interrupt): a worker that loses its supervisor exits with exitOrphaned
// instead of running on unsupervised.
const exitOrphaned = 4

// workerFlagSet carries the analysis flags a supervisor forwards to its
// workers, so a worker derives exactly the campaign the supervisor
// partitioned: both select the fault set from them with newCampaign.
// campaign's flag-settable fields are rendered by campaignflags.Args.
type workerFlagSet struct {
	circuit, bench string
	model          string
	stride, max    int
	maxBFs         int
	theta          float64
	seed           int64
	campaign       analysis.CampaignConfig
	chaosSpec      string
	logLevel       string
	logJSON        bool
}

// supervisorMode is the -shards configuration.
type supervisorMode struct {
	shards      int
	procs       int
	dir         string
	hbTimeout   time.Duration
	maxRestarts int
	binary      string // worker executable ("" = os.Executable())
	ckptPath    string
	verbose     bool
	obs         *obs.Observer
	flags       workerFlagSet
}

// workerArgs rebuilds a worker command line for one lease: a pure
// function of the campaign's flags and the lease's range, checkpoint and
// attempt, so a relaunched worker runs exactly the campaign its first
// launch ran.
func (s *supervisorMode) workerArgs(sh supervise.Shard) []string {
	f := s.flags
	args := []string{
		"-worker-shard", sh.Range(),
		"-worker-attempt", strconv.Itoa(sh.Attempt),
		"-hb-timeout", s.hbTimeout.String(),
		"-checkpoint", sh.Path,
		"-model", f.model,
		"-stride", strconv.Itoa(f.stride),
		"-max", strconv.Itoa(f.max),
		"-maxbfs", strconv.Itoa(f.maxBFs),
		"-theta", strconv.FormatFloat(f.theta, 'g', -1, 64),
		"-seed", strconv.FormatInt(f.seed, 10),
	}
	args = append(args, campaignflags.Args(f.campaign)...)
	if f.circuit != "" {
		args = append(args, "-circuit", f.circuit)
	}
	if f.bench != "" {
		args = append(args, "-bench", f.bench)
	}
	if f.chaosSpec != "" {
		args = append(args, "-chaos", f.chaosSpec)
	}
	if f.logLevel != "" {
		args = append(args, "-log", f.logLevel)
	}
	if f.logJSON {
		args = append(args, "-logjson")
	}
	return args
}

// supervise runs the sharded campaign and returns the merged per-fault
// records (global index -> record JSON), bit-identical to what an
// unsupervised run would have checkpointed.
func (s *supervisorMode) supervise(ctx context.Context, store supervise.Store, total int) map[int]json.RawMessage {
	bin := s.binary
	if bin == "" {
		exe, err := os.Executable()
		if err != nil {
			fatal(fmt.Errorf("-shards: locating worker binary: %w", err))
		}
		bin = exe
	}
	dir := s.dir
	if dir == "" {
		dir = s.ckptPath + ".shards"
	}
	launcher := &supervise.ExecLauncher{
		Binary: bin,
		Args:   s.workerArgs,
		BadLine: func(err error) {
			fmt.Fprintln(os.Stderr, "diffprop: supervisor:", err)
		},
	}
	var progress func(done, total int)
	if s.verbose {
		progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d faults (supervised)", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	res, err := supervise.RunSharded(ctx, supervise.CampaignConfig{
		Supervisor: supervise.Config{
			Launcher:         launcher,
			HeartbeatTimeout: s.hbTimeout,
			MaxRestarts:      s.maxRestarts,
			Obs:              s.obs,
			Progress:         progress,
		},
		Store:  store,
		Faults: total,
		Shards: s.shards,
		Procs:  s.procs,
		Dir:    dir,
	})
	sup := res.Supervision
	if sup.Deaths > 0 || len(sup.Quarantined) > 0 {
		fmt.Fprintf(os.Stderr, "diffprop: supervisor: %d worker death(s), %d restart(s), %d bisection(s), %d fault(s) quarantined\n",
			sup.Deaths, sup.Restarts, sup.Bisects, len(sup.Quarantined))
	}
	if err != nil {
		fatal(fmt.Errorf("supervised campaign: %w", err))
	}
	return res.Records
}

// finishSharded persists the merged records as the campaign checkpoint
// (full-set header, ascending index order — directly usable by a later
// unsupervised -resume) and returns them as the resume map for the final
// study rebuild.
func (s *supervisorMode) finishSharded(records map[int]json.RawMessage, hdr analysis.CheckpointHeader, ccfg analysis.CampaignConfig) analysis.CampaignConfig {
	if err := analysis.WriteMergedCheckpoint(s.ckptPath, hdr, records); err != nil {
		fatal(fmt.Errorf("writing merged checkpoint: %w", err))
	}
	fmt.Fprintf(os.Stderr, "diffprop: merged %d shard record(s) into %s\n", len(records), s.ckptPath)
	// The study is rebuilt purely from the merged records: every fault is
	// "resumed", nothing is re-analyzed, and the resulting records are the
	// workers' bytes — bit-identical to an unsupervised run. Chaos and
	// checkpointing stay out of the replay.
	ccfg.Resume = records
	ccfg.Checkpoint = nil
	ccfg.Chaos = nil
	ccfg.Progress = nil
	return ccfg
}

// run is the -shards path: it supervises the workers over camp's faults,
// merges their records into the campaign checkpoint and rebuilds the
// study from them.
func (s *supervisorMode) run(ctx context.Context, c *netlist.Circuit, camp campaign, ccfg analysis.CampaignConfig) result {
	records := s.supervise(ctx, camp, camp.faults)
	ccfg = s.finishSharded(records, camp.header(0, camp.faults), ccfg)
	res, err := camp.run(c, 0, camp.faults, ccfg)
	if err != nil {
		fatal(err)
	}
	return res
}

// workerMode is the -worker-shard configuration: one shard of the fault
// set, one checkpoint, the protocol on stdout.
type workerMode struct {
	shard    string
	attempt  int
	hbEvery  time.Duration
	ckptPath string
	chaosCfg *chaos.Config
	ccfg     analysis.CampaignConfig
}

// heartbeatPeriod is a worker's heartbeat tick under the supervisor's
// stall timeout (-hb-timeout, forwarded to every worker): a quarter of
// it, at most a second, so a healthy worker beats several times within
// any timeout.
func heartbeatPeriod(timeout time.Duration) time.Duration {
	if timeout <= 0 {
		timeout = supervise.DefaultHeartbeatTimeout
	}
	return min(time.Second, timeout/4)
}

// run analyzes the worker's shard and exits the process: 0 after a done
// message, 1 on a fatal error, exitOrphaned when the supervisor's stdin
// pipe reaches EOF. It never returns.
func (m *workerMode) run(c *netlist.Circuit, camp campaign) {
	lo, hi, err := supervise.ParseRange(m.shard)
	if err != nil {
		fatal(err)
	}
	rep := supervise.NewReporter(os.Stdout, lo, hi)
	workerFatal := func(err error) {
		rep.Error(err)
		fatal(err)
	}
	// The orphan watchdog: the supervisor holds our stdin open for our
	// whole life; EOF means it is gone — even by SIGKILL — and an
	// unsupervised worker must not keep burning the machine.
	supervise.WatchStdin(os.Stdin, func() {
		fmt.Fprintf(os.Stderr, "diffprop: worker %s: supervisor is gone; exiting\n", m.shard)
		os.Exit(exitOrphaned)
	})
	if hi > camp.faults {
		workerFatal(fmt.Errorf("worker shard %s exceeds the %d-fault set (flag drift between supervisor and worker)", m.shard, camp.faults))
	}

	cp, resume, err := analysis.ResumeCheckpoint(m.ckptPath, camp.Header(lo, hi))
	if err != nil {
		workerFatal(err)
	}
	rep.Hello(os.Getpid(), hi-lo)
	rep.Heartbeat(len(resume))
	res, err := camp.run(c, lo, hi, m.campaignConfig(cp, resume, lo, rep))
	if cerr := cp.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		workerFatal(err)
	}
	if n := res.analyzed; n < hi-lo {
		// Cancelled or partially skipped: this is not a completed shard,
		// and claiming so would merge skip markers into the campaign.
		workerFatal(fmt.Errorf("worker %s finished only %d of %d faults", m.shard, n, hi-lo))
	}
	rep.Done(res.analyzed)
	shutdownObs()
	os.Exit(0)
}

// campaignConfig specializes the shared campaign config for this worker:
// shard-local checkpointing/resume, heartbeat progress, and chaos keyed
// so a sharded campaign fires the exact same injections as an unsharded
// one (KeyOffset rebases fault keys; Attempt gates one-shot process
// points on restarts).
func (m *workerMode) campaignConfig(cp *analysis.Checkpointer, resume map[int]json.RawMessage, lo int, rep *supervise.Reporter) analysis.CampaignConfig {
	ccfg := m.ccfg
	ccfg.Checkpoint = cp
	ccfg.Resume = resume
	if m.chaosCfg != nil {
		cc := *m.chaosCfg
		cc.KeyOffset = lo
		cc.Attempt = m.attempt
		cc.Tear = cp.TearTail
		ccfg.Chaos = &cc
		// The reporter gets its own injector: hbstall is keyed by
		// heartbeat sequence, not fault index.
		rep.SetChaos(chaos.New(&cc))
	}
	var done atomic.Int64
	done.Store(int64(len(resume)))
	ccfg.Progress = func(d, total int) { done.Store(int64(d)) }
	go func() {
		t := time.NewTicker(m.hbEvery)
		defer t.Stop()
		for range t.C {
			rep.Heartbeat(int(done.Load()))
		}
	}()
	return ccfg
}
