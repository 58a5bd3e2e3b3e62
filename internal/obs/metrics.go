// Metrics: lock-free counters, gauges and histograms with Prometheus-text
// and expvar export.
//
// Every metric type is nil-safe: methods on a nil *Counter, *Gauge or
// *Histogram return immediately, so instrumented code can hold nil handles
// when observability is off and pay exactly one pointer comparison on the
// hot path — no allocation, no atomic, no branch into the slow path. This
// is what keeps the per-fault analysis loop allocation-free with metrics
// disabled (enforced by the CI allocation guard).
package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (zero on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores n. Safe on a nil receiver (no-op).
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// SetMax raises the gauge to n if n is larger (high-water marks such as
// peak BDD node counts). Safe on a nil receiver (no-op).
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Add adjusts the gauge by n. Safe on a nil receiver (no-op).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (zero on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with atomic per-bucket counters.
// Buckets are defined by ascending upper bounds; one overflow bucket
// (+Inf) is implicit.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// DefaultLatencyBuckets spans 100µs to 60s exponentially — wide enough to
// cover both trivial shallow faults and deep-circuit analyses that take
// seconds.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// NewHistogram builds a histogram over the ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value. Safe on a nil receiver (no-op) and for
// concurrent use.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (zero on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (zero on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// HistogramSnapshot is a consistent-enough point-in-time view: per-bucket
// counts (last bucket is +Inf), total count, and value sum.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot captures the histogram's current state (zero value on nil).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the bucket holding the target rank, the standard
// Prometheus-style histogram_quantile estimate. The first bucket
// interpolates from 0; ranks landing in the +Inf overflow bucket clamp to
// the last finite bound (there is no upper edge to interpolate toward).
// An empty snapshot returns 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := float64(0)
	for i, n := range s.Counts {
		if n == 0 {
			continue
		}
		if cum+float64(n) < rank {
			cum += float64(n)
			continue
		}
		if i >= len(s.Bounds) {
			break // +Inf bucket: clamp below
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		upper := s.Bounds[i]
		return lower + (upper-lower)*(rank-cum)/float64(n)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// metricKind tags a registry entry.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

type entry struct {
	name, help string
	kind       metricKind
	c          *Counter
	g          *Gauge
	fn         func() float64
	h          *Histogram
}

// Registry holds named metrics and renders them as Prometheus text
// exposition format or an expvar map. Registration is idempotent by name;
// a nil *Registry hands out nil metric handles, so callers can register
// unconditionally and stay on the no-op path when observability is off.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	byName  map[string]*entry
}

// NewRegistry builds an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*entry{}}
}

func (r *Registry) register(name, help string, kind metricKind) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
		}
		return e
	}
	e := &entry{name: name, help: help, kind: kind}
	r.byName[name] = e
	r.entries = append(r.entries, e)
	return e
}

// Counter registers (or returns the existing) counter under name.
// A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	e := r.register(name, help, kindCounter)
	if e.c == nil {
		e.c = &Counter{}
	}
	return e.c
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	e := r.register(name, help, kindGauge)
	if e.g == nil {
		e.g = &Gauge{}
	}
	return e.g
}

// GaugeFunc registers a computed gauge whose value is read at export time
// (derived quantities such as cache hit ratios).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	e := r.register(name, help, kindGaugeFunc)
	e.fn = fn
}

// Histogram registers (or returns the existing) histogram under name,
// with the given ascending bucket upper bounds (DefaultLatencyBuckets
// when empty).
func (r *Registry) Histogram(name, help string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	e := r.register(name, help, kindHistogram)
	if e.h == nil {
		e.h = NewHistogram(bounds...)
	}
	return e.h
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := append([]*entry(nil), r.entries...)
	r.mu.Unlock()
	for _, e := range entries {
		var err error
		switch e.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", e.name, e.help, e.name, e.name, e.c.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", e.name, e.help, e.name, e.name, e.g.Value())
		case kindGaugeFunc:
			_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", e.name, e.help, e.name, e.name, e.fn())
		case kindHistogram:
			err = writePromHistogram(w, e.name, e.help, e.h.Snapshot())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, name, help string, s HistogramSnapshot) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name); err != nil {
		return err
	}
	cum := int64(0)
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(b), cum); err != nil {
			return err
		}
	}
	if len(s.Counts) > 0 {
		cum += s.Counts[len(s.Counts)-1]
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n", name, cum, name, s.Sum, name, s.Count)
	return err
}

func formatFloat(f float64) string { return fmt.Sprintf("%g", f) }

// Snapshot returns every metric as a name → value map (histograms become
// {count, sum, buckets} maps); the expvar export serves this.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	entries := append([]*entry(nil), r.entries...)
	r.mu.Unlock()
	for _, e := range entries {
		switch e.kind {
		case kindCounter:
			out[e.name] = e.c.Value()
		case kindGauge:
			out[e.name] = e.g.Value()
		case kindGaugeFunc:
			out[e.name] = e.fn()
		case kindHistogram:
			s := e.h.Snapshot()
			out[e.name] = map[string]any{"count": s.Count, "sum": s.Sum, "buckets": s.Counts}
		}
	}
	return out
}

// expvarMu guards the published-name set; expvar.Publish panics on
// duplicates, so re-publishing (tests, repeated runs in one process) swaps
// the registry behind the existing name instead.
var (
	expvarMu        sync.Mutex
	expvarPublished = map[string]*atomic.Pointer[Registry]{}
)

// PublishExpvar exposes the registry's snapshot under the given expvar
// name (served at /debug/vars). Publishing the same name again rebinds it
// to the new registry.
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if p, ok := expvarPublished[name]; ok {
		p.Store(r)
		return
	}
	p := &atomic.Pointer[Registry]{}
	p.Store(r)
	expvarPublished[name] = p
	expvar.Publish(name, expvar.Func(func() any { return p.Load().Snapshot() }))
}
