// Package campaignflags declares the campaign flags cmd/diffprop and
// cmd/figures share: parallelism, the per-fault budget and recovery
// ladder, calibration, observability and process supervision. It parses
// them into an analysis.CampaignConfig, builds the observer they select,
// and renders a campaign configuration back into the diffprop command
// line that parses to it — the one renderer behind every diffprop
// subprocess, so a supervised worker runs exactly the campaign its parent
// parsed.
package campaignflags

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"sync"

	"repro/internal/analysis"
	"repro/internal/diffprop"
	"repro/internal/obs"
)

// Flags holds the parsed shared flag set.
type Flags struct {
	// Verbose is -v: stream progress and campaign runtime stats to stderr.
	Verbose bool
	// Shards, WorkerBinary and ShardDir are -shards, -worker-binary and
	// -shard-dir: run campaigns under the process supervisor, which
	// execs WorkerBinary per shard and keeps per-shard checkpoints in
	// ShardDir. Each command supplies its own defaults for the empty
	// values.
	Shards       int
	WorkerBinary string
	ShardDir     string
	// LogLevel and LogJSON are -log and -logjson, forwarded to
	// supervised workers so their logs reach the same stderr.
	LogLevel string
	LogJSON  bool

	workers   int
	budget    int64
	nodeLimit int
	retryMult float64
	calibrate bool

	httpAddr   string
	tracePath  string
	traceFmt   string
	flightPath string
}

// Register declares the shared flags on fs. workers is the command's
// -workers default.
func Register(fs *flag.FlagSet, workers int) *Flags {
	f := &Flags{}
	fs.IntVar(&f.workers, "workers", workers, "parallel analysis workers per campaign (0 = one per CPU)")
	fs.BoolVar(&f.Verbose, "v", false, "stream progress and campaign runtime stats to stderr")
	fs.Int64Var(&f.budget, "budget", 0, "per-fault BDD operation budget (0 = unlimited); blown faults degrade to simulation estimates")
	fs.IntVar(&f.nodeLimit, "nodelimit", 0, "per-fault BDD node-count watermark (0 = unlimited); a tripped analysis enters the recovery ladder")
	fs.Float64Var(&f.retryMult, "retrybudget", 0, "retry a blown fault once under its budget and node watermark scaled by this multiplier before degrading (<=1 disables)")
	fs.BoolVar(&f.calibrate, "calibrate", false, "self-calibrate each campaign's per-fault budget and retry ladder from the circuit's measured op-cost distribution (replaces hand-tuned -budget/-retrybudget)")
	fs.StringVar(&f.httpAddr, "http", "", "serve the debug endpoints (/metrics, /progress, /debug/pprof) on this address, e.g. :6060")
	fs.StringVar(&f.LogLevel, "log", "", "structured logging level on stderr: debug, info, warn, error (empty = off)")
	fs.BoolVar(&f.LogJSON, "logjson", false, "emit structured logs as JSON instead of logfmt text")
	fs.StringVar(&f.tracePath, "trace", "", "stream one trace event per analyzed fault to this file")
	fs.StringVar(&f.traceFmt, "traceformat", "jsonl", "trace file format: jsonl, chrome (chrome://tracing)")
	fs.StringVar(&f.flightPath, "flight", "", "record campaign events in a flight ring and dump them as JSON to this file on exit, panic, checkpoint failure or interrupt (analyze with cmd/obsreport)")
	fs.IntVar(&f.Shards, "shards", 0, "run campaigns under the crash-tolerant process supervisor: partition each fault set into N shards analyzed by supervised, restartable worker subprocesses; merged results are bit-identical to an in-process run whenever no -budget, -nodelimit or -calibrate bound fires (a calibrated budget is learned from whichever faults finish first)")
	fs.StringVar(&f.WorkerBinary, "worker-binary", "", "supervisor: the diffprop executable run as shard workers (diffprop defaults to itself; figures requires it with -shards)")
	fs.StringVar(&f.ShardDir, "shard-dir", "", "supervisor: directory for per-shard checkpoints, resumed when rerun over the same directory (diffprop default <checkpoint>.shards; figures default a temporary directory removed on success)")
	return f
}

// Campaign returns the campaign settings the flags select: Workers,
// FaultOps, Recovery and Calibrate.
func (f *Flags) Campaign() analysis.CampaignConfig {
	return analysis.CampaignConfig{
		Workers:  f.workers,
		FaultOps: f.budget,
		Recovery: diffprop.Recovery{
			NodeLimit:       f.nodeLimit,
			RetryMultiplier: f.retryMult,
		},
		Calibrate: f.calibrate,
	}
}

// Args renders the flag-settable fields of cfg (those Campaign fills) as
// diffprop flags that Campaign parses back to the same values. -workers
// is always rendered because the commands' defaults differ.
func Args(cfg analysis.CampaignConfig) []string {
	args := []string{"-workers", strconv.Itoa(cfg.Workers)}
	if cfg.FaultOps != 0 {
		args = append(args, "-budget", strconv.FormatInt(cfg.FaultOps, 10))
	}
	if cfg.Recovery.NodeLimit != 0 {
		args = append(args, "-nodelimit", strconv.Itoa(cfg.Recovery.NodeLimit))
	}
	if cfg.Recovery.RetryMultiplier != 0 {
		args = append(args, "-retrybudget", strconv.FormatFloat(cfg.Recovery.RetryMultiplier, 'g', -1, 64))
	}
	if cfg.Calibrate {
		args = append(args, "-calibrate")
	}
	return args
}

// Session is the observer the -http/-log/-logjson/-trace/-traceformat/
// -flight flags select, plus its teardown.
type Session struct {
	// Observer is nil — the zero-overhead off state — when no
	// observability flag is set.
	Observer *obs.Observer

	shutdownOnce sync.Once
	shutdown     func()
	dumpOnce     sync.Once
	dump         func(reason string)
}

// Shutdown flushes the trace file and stops the timeline sampler and the
// debug server. Idempotent.
func (s *Session) Shutdown() {
	s.shutdownOnce.Do(func() {
		if s.shutdown != nil {
			s.shutdown()
		}
	})
}

// DumpFlight writes the -flight post-mortem dump. Idempotent: the first
// reason wins, so a panic's dump is not overwritten by the exit path's.
// A no-op when -flight is unset.
func (s *Session) DumpFlight(reason string) {
	s.dumpOnce.Do(func() {
		if s.dump != nil {
			s.dump(reason)
		}
	})
}

// StartObs builds the observer. prog names the command in messages, the
// expvar namespace and the flight dump. The timeline sampler runs
// whenever the flight recorder or the debug server wants it (the
// /timeline endpoint and the dump embed it).
func (f *Flags) StartObs(prog string) (*Session, error) {
	s := &Session{}
	if f.httpAddr == "" && f.LogLevel == "" && f.tracePath == "" && f.flightPath == "" {
		return s, nil
	}
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	if f.LogLevel != "" {
		lv, err := obs.ParseLevel(f.LogLevel)
		if err != nil {
			return nil, err
		}
		o.Log = obs.NewLogger(os.Stderr, lv, f.LogJSON)
	}
	var traceFile *os.File
	if f.tracePath != "" {
		format, err := obs.ParseTraceFormat(f.traceFmt)
		if err != nil {
			return nil, err
		}
		if traceFile, err = os.Create(f.tracePath); err != nil {
			return nil, err
		}
		o.Tracer = obs.NewTracer(traceFile, format)
	}
	if f.flightPath != "" {
		o.Flight = obs.NewFlightRecorder(0)
	}
	var timeline *obs.Timeline
	if f.flightPath != "" || f.httpAddr != "" {
		timeline = o.StartTimeline(0, 0)
	}
	var srv *obs.Server
	if f.httpAddr != "" {
		o.Metrics.PublishExpvar(prog)
		var err error
		if srv, err = obs.Serve(f.httpAddr, o); err != nil {
			timeline.Stop()
			if traceFile != nil {
				traceFile.Close()
			}
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: debug server on http://%s (/metrics /progress /debug/pprof)\n", prog, srv.Addr())
	}
	s.Observer = o
	s.shutdown = func() {
		timeline.Stop()
		if o.Tracer != nil {
			if err := o.Tracer.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: closing trace: %v\n", prog, err)
			}
		}
		if traceFile != nil {
			traceFile.Close()
		}
		if srv != nil {
			srv.Close()
		}
	}
	if f.flightPath != "" {
		s.dump = func(reason string) {
			// Freeze the timeline first so the dump's final sample covers
			// the run's tail.
			timeline.Stop()
			if ok, err := o.WriteFlightDump(f.flightPath, prog, reason); err != nil {
				fmt.Fprintf(os.Stderr, "%s: writing flight dump: %v\n", prog, err)
			} else if ok {
				fmt.Fprintf(os.Stderr, "%s: wrote flight dump (%s) to %s\n", prog, reason, f.flightPath)
			}
		}
	}
	return s, nil
}
