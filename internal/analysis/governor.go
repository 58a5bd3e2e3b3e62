// The campaign memory governor.
//
// A fault campaign's heap is dominated by per-worker BDD node tables, and
// a burst of hard faults can push the sum past the process's memory limit
// faster than Go's GC can push back — the kernel then OOM-kills the whole
// campaign, losing everything since the last checkpoint. The governor
// samples the heap on a short tick and, when it nears the configured
// ceiling (GOMEMLIMIT by default), parks workers between faults: a parked
// worker garbage-collects its engine down to the live good functions and
// blocks until the heap recedes. Worker 0 is never parked, so the campaign
// always makes progress — degraded to serial throughput in the worst case
// instead of dying. Parking only ever happens between faults, so records
// stay bit-identical to an ungoverned run.
package analysis

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/diffprop"
)

// Governor tuning. Parking begins when the sampled heap exceeds
// govHiFrac x limit and ends once it falls back under govLoFrac x limit;
// the gap gives the runtime GC room to actually reclaim the freed node
// tables before workers resume.
const (
	govHiFrac      = 0.85
	govLoFrac      = 0.70
	defaultMemPoll = 150 * time.Millisecond
)

// effectiveMemLimit resolves the governor's heap ceiling: an explicit
// positive CampaignConfig.MemLimit wins; otherwise the process GOMEMLIMIT
// (via debug.SetMemoryLimit's read-without-set idiom) when one is set; a
// negative config — or no limit anywhere — disables the governor.
func effectiveMemLimit(cfgLimit int64) int64 {
	if cfgLimit != 0 {
		if cfgLimit < 0 {
			return 0
		}
		return cfgLimit
	}
	if lim := debug.SetMemoryLimit(-1); lim < math.MaxInt64 {
		return lim
	}
	return 0
}

// heapSample reads the runtime's current heap occupancy. HeapAlloc (live +
// not-yet-swept) is the piece of the GOMEMLIMIT accounting the campaign
// actually drives via BDD node tables.
func heapSample() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// governor parks and unparks campaign workers around a heap ceiling. A nil
// governor (no limit configured, or a single worker) accepts every call as
// a no-op, keeping the ungoverned hot path free of locks.
type governor struct {
	hi, lo int64
	poll   time.Duration
	sample func() int64
	instr  *campaignInstr

	mu         sync.Mutex
	cond       *sync.Cond
	pressured  bool // heap above hi and not yet back under lo
	released   bool // fault set drained or campaign stopping: nobody parks
	parked     int
	parkEvents int
	maxParked  int
	lastHeap   int64

	stopOnce sync.Once
	stopCh   chan struct{}
}

// newGovernor builds the governor for one campaign run, or nil when no
// memory limit applies or there is no second worker to park.
func newGovernor(cfg CampaignConfig, workers int, instr *campaignInstr) *governor {
	limit := effectiveMemLimit(cfg.MemLimit)
	if limit <= 0 || workers < 2 {
		return nil
	}
	g := &governor{
		hi:     int64(float64(limit) * govHiFrac),
		lo:     int64(float64(limit) * govLoFrac),
		poll:   cfg.MemPoll,
		sample: cfg.memSample,
		instr:  instr,
		stopCh: make(chan struct{}),
	}
	if g.poll <= 0 {
		g.poll = defaultMemPoll
	}
	if g.sample == nil {
		g.sample = heapSample
	}
	g.cond = sync.NewCond(&g.mu)
	// Sample once before any worker is admitted: a campaign that starts
	// over the ceiling parks from its first claim, not one tick later —
	// by which time a short campaign may have drained.
	g.observe()
	go g.monitor()
	return g
}

// monitor is the sampling loop: one goroutine per campaign, alive until
// stop.
func (g *governor) monitor() {
	ticker := time.NewTicker(g.poll)
	defer ticker.Stop()
	for {
		select {
		case <-g.stopCh:
			return
		case <-ticker.C:
		}
		g.observe()
	}
}

// observe takes one heap sample and moves the pressure state across the
// watermarks.
func (g *governor) observe() {
	heap := g.sample()
	g.mu.Lock()
	g.lastHeap = heap
	switch {
	case !g.pressured && heap >= g.hi:
		g.pressured = true
	case g.pressured && heap <= g.lo:
		g.pressured = false
		g.cond.Broadcast()
	}
	g.mu.Unlock()
	g.instr.governorHeap(heap)
}

// admit gates one worker between faults. Worker 0 passes straight through
// (the progress guarantee); any other worker parks while the governor is
// pressured, first collecting its engine down to the live good functions
// so the wait actually gives memory back. halted lets a parked worker bail
// out promptly on cancellation; release wakes everyone when the fault set
// drains.
func (g *governor) admit(w int, e *diffprop.Engine, halted func() bool) {
	if g == nil || w == 0 {
		return
	}
	g.mu.Lock()
	if !g.pressured || g.released {
		g.mu.Unlock()
		return
	}
	g.mu.Unlock()

	// Shrink this worker's footprint before sleeping: the parked engine
	// holds only its good functions until it resumes.
	e.GCNow()

	g.mu.Lock()
	if g.pressured && !g.released {
		g.parked++
		g.parkEvents++
		if g.parked > g.maxParked {
			g.maxParked = g.parked
		}
		g.instr.governorParked(w, g.parked, g.lastHeap)
		for g.pressured && !g.released && !halted() {
			g.cond.Wait()
		}
		g.parked--
		g.instr.governorUnparked(w, g.parked)
	}
	g.mu.Unlock()
}

// release permanently opens the gate (fault set drained or campaign
// stopping) and wakes every parked worker.
func (g *governor) release() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.released = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// stop ends the monitor goroutine and releases any parked workers. Safe to
// call more than once.
func (g *governor) stop() {
	if g == nil {
		return
	}
	g.stopOnce.Do(func() { close(g.stopCh) })
	g.release()
}

// counters reports the park statistics for CampaignStats.
func (g *governor) counters() (parkEvents, maxParked int) {
	if g == nil {
		return 0, 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.parkEvents, g.maxParked
}

// ParseMemLimit parses a -memlimit flag value using the GOMEMLIMIT
// syntax: a decimal byte count with an optional B / KiB / MiB / GiB / TiB
// suffix (e.g. "512MiB"). The empty string returns 0 (adopt GOMEMLIMIT)
// and "off" returns -1 (governor disabled), as CampaignConfig.MemLimit
// reads them.
func ParseMemLimit(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	if strings.EqualFold(s, "off") {
		return -1, nil
	}
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30}, {"TiB", 1 << 40}, {"B", 1},
	} {
		if strings.HasSuffix(s, u.suffix) {
			s, mult = strings.TrimSuffix(s, u.suffix), u.mult
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("analysis: bad memory limit %q (want e.g. 512MiB, 2GiB or a byte count)", s)
	}
	if mult > 1 && n > math.MaxInt64/mult {
		return 0, fmt.Errorf("analysis: memory limit %q overflows", s)
	}
	return n * mult, nil
}
