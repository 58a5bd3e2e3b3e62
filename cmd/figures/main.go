// Command figures regenerates every table and figure of the paper's
// evaluation section (Table 1, Figures 1-8) and the quantified prose
// claims (X1-X4) as plain-text reports and optional CSV files.
//
// Usage:
//
//	figures                         # everything, paper-scale configuration
//	figures -quick                  # small circuits, small samples (smoke run)
//	figures -fig fig3               # one exhibit
//	figures -csv out/               # also write one CSV per exhibit
//	figures -maxbfs 200 -seed 7     # tune the bridging fault sampling
//	figures -shards 2 -worker-binary ./diffprop   # supervised, crash-tolerant campaigns
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/campaignflags"
	"repro/internal/experiments"
	"repro/internal/report"
)

// shutdownObs flushes the trace file, stops the timeline sampler and the
// debug server; dumpFlight writes the -flight post-mortem dump. Both are
// idempotent and no-ops when their flags are unset (fatal exits through
// os.Exit, so defers cannot be relied on).
var (
	shutdownObs = func() {}
	dumpFlight  = func(reason string) {}
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "use the small smoke-test configuration")
		figID    = flag.String("fig", "all", "exhibit to produce: table1, fig1..fig8, x1..x4, or all")
		csvDir   = flag.String("csv", "", "directory to write per-exhibit CSV files into")
		maxBFs   = flag.Int("maxbfs", 0, "override the bridging fault sample ceiling")
		seed     = flag.Int64("seed", 0, "override the sampling seed")
		theta    = flag.Float64("theta", 0, "override the exponential distance parameter")
		bins     = flag.Int("bins", 0, "override the histogram bin count")
		circuits = flag.String("circuits", "", "comma-separated circuit list for the trend figures")
	)
	cf := campaignflags.Register(flag.CommandLine, 0)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *maxBFs > 0 {
		cfg.MaxBFs = *maxBFs
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *theta > 0 {
		cfg.Theta = *theta
	}
	if *bins > 0 {
		cfg.Bins = *bins
	}
	if *circuits != "" {
		cfg.Circuits = strings.Split(*circuits, ",")
	}
	cfg.Campaign = cf.Campaign()
	var cleanupShards = func() {}
	if cf.Shards > 0 {
		if cf.WorkerBinary == "" {
			fatal(fmt.Errorf("-shards needs -worker-binary <diffprop binary> (the supervised worker executable)"))
		}
		cfg.Shards = cf.Shards
		cfg.WorkerBinary = cf.WorkerBinary
		cfg.ShardDir = cf.ShardDir
		if cfg.ShardDir == "" {
			dir, err := os.MkdirTemp("", "figures-shards-")
			if err != nil {
				fatal(err)
			}
			cfg.ShardDir = dir
			// Removed on success only: after a fatal exit the checkpoints
			// are what -shard-dir reruns resume from.
			cleanupShards = func() { os.RemoveAll(dir) }
		}
	}
	sess, err := cf.StartObs("figures")
	if err != nil {
		fatal(err)
	}
	shutdownObs, dumpFlight = sess.Shutdown, sess.DumpFlight
	cfg.Campaign.Obs = sess.Observer
	if cf.Verbose {
		cfg.Progress = func(circuit string, done, total int) {
			fmt.Fprintf(os.Stderr, "\r%s: %d/%d faults", circuit, done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	r := experiments.NewRunner(cfg)

	var exhibits []experiments.Exhibit
	if *figID == "all" {
		var err error
		exhibits, err = r.All()
		if err != nil {
			fatal(err)
		}
	} else {
		ex, err := one(r, *figID)
		if err != nil {
			fatal(err)
		}
		exhibits = []experiments.Exhibit{ex}
	}

	for _, ex := range exhibits {
		fmt.Println(ex.Text)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*csvDir, ex.ID+".csv")
			if err := os.WriteFile(path, []byte(ex.CSV), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	cleanupShards()
	dumpFlight("completed")
	shutdownObs()
}

func one(r *experiments.Runner, id string) (experiments.Exhibit, error) {
	if id == "table1" {
		t := r.Table1()
		return experiments.Exhibit{ID: id, Text: t.Text(), CSV: t.CSV()}, nil
	}
	figs := map[string]func() (report.Figure, error){
		"fig1": r.Fig1, "fig2": r.Fig2, "fig3": r.Fig3, "fig4": r.Fig4,
		"fig5": r.Fig5, "fig6": r.Fig6, "fig7": r.Fig7, "fig8": r.Fig8,
	}
	if fn, ok := figs[id]; ok {
		f, err := fn()
		if err != nil {
			return experiments.Exhibit{}, err
		}
		return experiments.Exhibit{ID: id, Text: f.Text(), CSV: f.CSV()}, nil
	}
	tables := map[string]func() (report.Table, error){
		"x1": r.X1, "x2": r.X2, "x3": r.X3, "x4": r.X4, "x5": r.X5, "x6": r.X6, "x7": r.X7, "x8": r.X8, "x9": r.X9, "x10": r.X10, "x11": r.X11, "x12": r.X12, "summary": r.Summary,
	}
	if fn, ok := tables[id]; ok {
		t, err := fn()
		if err != nil {
			return experiments.Exhibit{}, err
		}
		return experiments.Exhibit{ID: id, Text: t.Text(), CSV: t.CSV()}, nil
	}
	return experiments.Exhibit{}, fmt.Errorf("unknown exhibit %q (table1, fig1..fig8, x1..x12, summary, all)", id)
}

func fatal(err error) {
	dumpFlight("error")
	shutdownObs()
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
