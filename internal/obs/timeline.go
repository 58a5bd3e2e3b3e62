// Timeline: a periodic bounded-ring snapshotter of the system's vital
// signs — heap size, live BDD nodes, unique-table occupancy, op-cache hit
// ratio, fault throughput, calibration budget — served at /timeline and
// embedded in flight dumps. One background goroutine
// samples the campaign gauges on a fixed period; the ring keeps the most
// recent window. All methods are nil-safe.
package obs

import (
	"runtime"
	"sync"
	"time"
)

// TimelineSample is one periodic reading of the system's vital signs.
// Ratio and rate fields are computed over the interval since the previous
// sample, not cumulatively, so a mid-run cache-behavior change is visible
// in the curve.
type TimelineSample struct {
	TUS                  int64   `json:"t_us"`
	HeapBytes            int64   `json:"heap_bytes"`
	BDDNodes             int64   `json:"bdd_nodes"`
	TableLoad            float64 `json:"table_load"`
	CacheHitRatio        float64 `json:"cache_hit_ratio"`
	FaultsDone           int64   `json:"faults_done"`
	FaultsPerSec         float64 `json:"faults_per_s"`
	CalibrationBudgetOps int64   `json:"calibration_budget_ops"`
	// GatesVisited is the cumulative propagation-walk footprint;
	// ConeSkipRatio the interval-local fraction of gates cone-restricted
	// propagation skipped (0 while the full-scan reference runs).
	GatesVisited  int64   `json:"gates_visited"`
	ConeSkipRatio float64 `json:"cone_skip_ratio"`
}

// Default timeline cadence: one sample every 500ms, last ~17 minutes
// retained. Longer campaigns wrap; the flight dump still shows the most
// recent window, which is the one post-mortems care about.
const (
	DefaultTimelinePeriod  = 500 * time.Millisecond
	DefaultTimelineSamples = 2048
)

// Timeline is a bounded ring of periodic samples filled by a background
// goroutine started with Observer.StartTimeline.
type Timeline struct {
	mu   sync.Mutex
	ring []TimelineSample
	next uint64

	cm    *CampaignMetrics
	start time.Time
	stop  chan struct{}
	done  chan struct{}

	// previous-sample state for interval deltas
	lastHits, lastMisses, lastDone int64
	lastVisited, lastSkipped       int64
	lastT                          time.Time
}

// StartTimeline launches the periodic sampler (idempotent: a second call
// returns the already-running timeline). A nil observer returns nil; the
// sampler reads the observer's campaign metrics, so an observer without a
// registry records heap-only samples.
func (o *Observer) StartTimeline(period time.Duration, capacity int) *Timeline {
	if o == nil {
		return nil
	}
	if period <= 0 {
		period = DefaultTimelinePeriod
	}
	if capacity <= 0 {
		capacity = DefaultTimelineSamples
	}
	o.mu.Lock()
	if o.timeline != nil {
		t := o.timeline
		o.mu.Unlock()
		return t
	}
	t := &Timeline{
		ring:  make([]TimelineSample, capacity),
		start: time.Now(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	t.lastT = t.start
	o.timeline = t
	o.mu.Unlock()
	t.cm = o.CampaignMetrics()
	go t.run(period)
	return t
}

// Timeline returns the running timeline, or nil when none was started.
func (o *Observer) Timeline() *Timeline {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.timeline
}

// Stop halts the sampler goroutine and waits for it to exit (nil-safe,
// idempotent).
func (t *Timeline) Stop() {
	if t == nil {
		return
	}
	t.mu.Lock()
	select {
	case <-t.stop:
		t.mu.Unlock()
		<-t.done
		return
	default:
	}
	close(t.stop)
	t.mu.Unlock()
	<-t.done
}

func (t *Timeline) run(period time.Duration) {
	defer close(t.done)
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			t.sample() // one final reading so short runs are never empty
			return
		case <-tick.C:
			t.sample()
		}
	}
}

// sample takes one reading and appends it to the ring.
func (t *Timeline) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	now := time.Now()

	s := TimelineSample{
		TUS:                  now.Sub(t.start).Microseconds(),
		HeapBytes:            int64(ms.HeapAlloc),
		BDDNodes:             t.cm.BDDNodes.Value(),
		CalibrationBudgetOps: t.cm.CalibrationBudgetOps.Value(),
		FaultsDone:           t.cm.FaultsDone.Value(),
	}
	if buckets := t.cm.BDDTableBuckets.Value(); buckets > 0 {
		s.TableLoad = float64(s.BDDNodes) / float64(buckets)
	}
	hits, misses := t.cm.CacheHits.Value(), t.cm.CacheMisses.Value()
	visited, skipped := t.cm.GatesVisited.Value(), t.cm.GatesSkipped.Value()
	s.GatesVisited = visited

	t.mu.Lock()
	if dh, dm := hits-t.lastHits, misses-t.lastMisses; dh+dm > 0 {
		s.CacheHitRatio = float64(dh) / float64(dh+dm)
	}
	if dv, ds := visited-t.lastVisited, skipped-t.lastSkipped; dv+ds > 0 {
		s.ConeSkipRatio = float64(ds) / float64(dv+ds)
	}
	if dt := now.Sub(t.lastT).Seconds(); dt > 0 {
		s.FaultsPerSec = float64(s.FaultsDone-t.lastDone) / dt
	}
	t.lastVisited, t.lastSkipped = visited, skipped
	t.lastHits, t.lastMisses, t.lastDone, t.lastT = hits, misses, s.FaultsDone, now
	t.ring[t.next%uint64(len(t.ring))] = s
	t.next++
	t.mu.Unlock()
}

// Snapshot returns the retained samples oldest-first (nil-safe).
func (t *Timeline) Snapshot() []TimelineSample {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.ring))
	lo := uint64(0)
	if t.next > n {
		lo = t.next - n
	}
	out := make([]TimelineSample, 0, t.next-lo)
	for seq := lo; seq < t.next; seq++ {
		out = append(out, t.ring[seq%n])
	}
	return out
}
