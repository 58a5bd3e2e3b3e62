package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans of one traced run share RunID; Parent is the index of the span
// that was open when this one began (-1 for the root).
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	RunID   string `json:"run"`
}

// tracer keeps the spans of one traced run in memory until write. It is
// used from one goroutine: the benchmark calls the layers serially, and a
// layer's own goroutines (campaign workers, shard subprocesses) sit inside
// the span of the call that started them.
type tracer struct {
	runID string
	spans []span
	open  []int
}

func newTracer(runID string) *tracer { return &tracer{runID: runID} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name, layer string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, StartNS: time.Now().UnixNano(), Parent: parent, RunID: t.runID})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.EndNS = time.Now().UnixNano()
	return time.Duration(s.EndNS - s.StartNS)
}

// timed runs fn inside a span and returns the span's duration. On a nil
// tracer it only runs fn, so untraced runs share the traced code path.
func (t *tracer) timed(name, layer string, fn func()) time.Duration {
	if t == nil {
		fn()
		return 0
	}
	t.begin(name, layer)
	fn()
	return t.end()
}

// sum totals the durations of the spans whose name starts with prefix.
func (t *tracer) sum(prefix string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			d += s.EndNS - s.StartNS
		}
	}
	return time.Duration(d)
}

// selfTimes returns each layer's self time: the summed durations of its
// spans minus the parts of those intervals that child spans cover. Child
// spans are strictly nested in their parents, so subtracting each child's
// duration from its parent is exact.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Layer] += time.Duration(self[i])
	}
	return out
}

// coverage is the share of the root span's wall time that the layers'
// self time accounts for; the rest is the benchmark's own glue (digests,
// bookkeeping) between layer calls.
func (t *tracer) coverage() float64 {
	if len(t.spans) == 0 {
		return 0
	}
	root := t.spans[0]
	wall := root.EndNS - root.StartNS
	if wall <= 0 {
		return 0
	}
	var layers time.Duration
	for layer, d := range t.selfTimes() {
		if layer != root.Layer {
			layers += d
		}
	}
	return float64(layers) / float64(wall)
}

// write stores the spans and the per-layer self times as JSON.
func (t *tracer) write(path string) error {
	selfS := map[string]float64{}
	for l, d := range t.selfTimes() {
		selfS[l] = d.Seconds()
	}
	buf, err := json.MarshalIndent(struct {
		RunID    string             `json:"run"`
		SelfS    map[string]float64 `json:"self_s"`
		Coverage float64            `json:"coverage"`
		Spans    []span             `json:"spans"`
	}{t.runID, selfS, t.coverage(), t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
