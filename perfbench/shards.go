package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/supervise"
)

// childTimeout bounds every subprocess the benchmark starts.
const childTimeout = 170 * time.Second

// procStats is what the kernel reports for a finished subprocess. Its
// rusage covers the process and every descendant it waited for, so for a
// sharded campaign it includes the shard workers: maxrss is the largest
// resident set of any of them, and the CPU times are summed.
type procStats struct {
	WallS float64
	CPUS  float64
	RSSMB float64
}

func statsOf(ps *os.ProcessState, wall time.Duration) procStats {
	st := procStats{WallS: wall.Seconds()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		st.CPUS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		st.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return st
}

// shardRun is one sharded campaign through cmd/diffprop.
type shardRun struct {
	proc procStats
	// setupS runs from exec to the first record any shard persisted: the
	// supervisor's synthesis, worker start, each worker's re-synthesis
	// and one fault. The workers report nothing earlier to the outside.
	setupS float64
	merged string
	shards [][2]int
	dir    string
}

// runSharded runs the campaign as `diffprop -shards 2 -checkpoint`, whose
// workers re-derive the same fault list from -circuit and -max. flight,
// when set, asks the supervisor for its flight dump.
func runSharded(bin, dir string, c *campaign, flight string) (shardRun, error) {
	n := len(c.sa)
	run := shardRun{
		merged: filepath.Join(dir, "merged.jsonl"),
		dir:    filepath.Join(dir, "shards"),
		shards: analysis.PartitionFaults(n, campaignWorkers),
	}
	args := []string{
		"-circuit", c.circuit.Name, "-max", strconv.Itoa(n),
		"-shards", strconv.Itoa(campaignWorkers), "-workers", "1",
		"-checkpoint", run.merged, "-shard-dir", run.dir, "-summary",
	}
	if flight != "" {
		args = append(args, "-flight", flight)
	}
	// A shard checkpoint holds a record once it is longer than its header
	// line.
	paths := make([]string, len(run.shards))
	headerLen := make([]int64, len(run.shards))
	for i, r := range run.shards {
		paths[i] = supervise.ShardPath(run.dir, r[0], r[1])
		hdr, err := json.Marshal(analysis.StuckAtCheckpointHeader(c.work, c.sa[r[0]:r[1]]).WithShard(r[0], r[1]))
		if err != nil {
			return run, err
		}
		headerLen[i] = int64(len(hdr)) + 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return run, err
	}
	firstRecord := make(chan time.Time, 1)
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			for i, p := range paths {
				if fi, err := os.Stat(p); err == nil && fi.Size() > headerLen[i] {
					firstRecord <- time.Now()
					return
				}
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	err := cmd.Wait()
	wall := time.Since(start)
	close(stop)
	<-polled
	if err != nil {
		return run, fmt.Errorf("diffprop -shards: %v\n%s", err, stderr.Bytes())
	}
	select {
	case t := <-firstRecord:
		run.setupS = t.Sub(start).Seconds()
	default:
		return run, fmt.Errorf("diffprop -shards finished before any shard record was seen")
	}
	run.proc = statsOf(cmd.ProcessState, wall)
	return run, nil
}

// campaignS is the sharded campaign's wall time after set-up, including
// the merge of the shard checkpoints.
func (r shardRun) campaignS() float64 { return r.proc.WallS - r.setupS }

func shardPath(run shardRun, r [2]int) string { return supervise.ShardPath(run.dir, r[0], r[1]) }
