package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/circuits"
	"repro/internal/faults"
	"repro/internal/netlist"
)

// schedReport is the BENCH_sched.json schema: the same stuck-at campaign
// run under every dispatch order, so CI can track whether cone-locality
// scheduling keeps paying for itself and cone restriction keeps skipping
// gates.
type schedReport struct {
	Circuit string `json:"circuit"`
	// Gates counts the gates of the analyzed two-input working circuit:
	// every analysis's visited plus skipped gates.
	Gates     int    `json:"gates"`
	Workers   int    `json:"workers"`
	Faults    int    `json:"faults"`
	Reps      int    `json:"reps"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// Runs holds one entry per dispatch order.
	Runs []schedRun `json:"runs"`
	// SpeedupConeVsIndex compares cone-ordered throughput to raw index
	// order.
	SpeedupConeVsIndex float64 `json:"speedup_cone_vs_index"`
	// StrictSubset reports that every run's worklist skipped some gates
	// while visited plus skipped accounts for every gate of every fault's
	// analysis: the cone walk covers a strict subset of a full scan.
	StrictSubset bool `json:"strict_subset"`
	// Identical reports that every run produced bit-identical records.
	Identical bool `json:"identical"`
}

type schedRun struct {
	Name         string  `json:"name"`
	Order        string  `json:"order"`
	WallMs       float64 `json:"wall_ms"`
	FaultsPerSec float64 `json:"faults_per_sec"`
	GatesVisited int64   `json:"gates_visited"`
	GatesSkipped int64   `json:"gates_skipped"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// schedBench runs the scheduling benchmark: each configuration is repeated
// reps times and scored on its best wall clock, damping scheduler and GC
// noise the way CI needs.
func schedBench(c *netlist.Circuit, fs []faults.StuckAt, workers, reps int) schedReport {
	rep := schedReport{
		Circuit:   c.Name,
		Gates:     c.Decompose2().NumGates(),
		Workers:   workers,
		Faults:    len(fs),
		Reps:      reps,
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
	}

	configs := []struct {
		name  string
		order analysis.OrderPolicy
	}{
		{"worklist-index", analysis.OrderIndex},
		{"worklist-cone", analysis.OrderCone},
		{"worklist-level", analysis.OrderLevel},
	}

	rep.Identical = true
	var refRecords []analysis.StuckAtRecord
	for i, cc := range configs {
		var best schedRun
		for r := 0; r < reps; r++ {
			runtime.GC()
			t0 := time.Now()
			study, err := analysis.RunStuckAtCampaign(c, nil, fs, analysis.CampaignConfig{
				Workers: workers,
				Order:   cc.order,
			})
			wall := time.Since(t0)
			if err != nil {
				fatal(err)
			}
			if i == 0 && r == 0 {
				refRecords = study.Records
			} else if !reflect.DeepEqual(study.Records, refRecords) {
				rep.Identical = false
			}
			run := schedRun{
				Name:         cc.name,
				Order:        cc.order.String(),
				WallMs:       float64(wall.Microseconds()) / 1e3,
				GatesVisited: study.Stats.GatesVisited,
				GatesSkipped: study.Stats.GatesSkipped,
				CacheHitRate: study.Stats.Cache.HitRate(),
			}
			if wall > 0 {
				run.FaultsPerSec = float64(len(fs)) / wall.Seconds()
			}
			if r == 0 || run.WallMs < best.WallMs {
				best = run
			}
		}
		rep.Runs = append(rep.Runs, best)
	}

	index, cone := rep.Runs[0], rep.Runs[1]
	if index.FaultsPerSec > 0 {
		rep.SpeedupConeVsIndex = cone.FaultsPerSec / index.FaultsPerSec
	}
	rep.StrictSubset = true
	for _, run := range rep.Runs {
		if run.GatesSkipped == 0 || run.GatesVisited+run.GatesSkipped != int64(len(fs)*rep.Gates) {
			rep.StrictSubset = false
		}
	}
	return rep
}

// schedMain drives -mode sched: benchmark, human summary on stderr, JSON
// report to -out.
func schedMain(circuit string, workers, maxF, reps int, out string) {
	c := circuits.MustGet(circuit)
	fs := faults.CheckpointStuckAts(c.Decompose2())
	if maxF > 0 && len(fs) > maxF {
		fs = fs[:maxF]
	}
	rep := schedBench(c, fs, workers, reps)

	for _, run := range rep.Runs {
		fmt.Fprintf(os.Stderr,
			"bddbench sched %s workers=%d faults=%d %s: %.0fms (%.0f faults/s, visited %d, skipped %d, cache %.2f)\n",
			rep.Circuit, rep.Workers, rep.Faults, run.Name,
			run.WallMs, run.FaultsPerSec, run.GatesVisited, run.GatesSkipped, run.CacheHitRate)
	}
	fmt.Fprintf(os.Stderr,
		"bddbench sched: cone vs worklist-index %.2fx, strict subset %v, identical %v\n",
		rep.SpeedupConeVsIndex, rep.StrictSubset, rep.Identical)

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		fatal(err)
	}
}
