// Work-stealing parallel campaign runners.
//
// The per-fault cost of Difference Propagation is heavily skewed —
// selective trace makes faults deep in the logic roughly an order of
// magnitude costlier than shallow ones — so contiguous per-worker chunks
// leave workers idle behind the unlucky chunk. The runners here instead
// dispatch fault indices through a single atomic counter: every worker
// claims the next contiguous block of unanalyzed faults the moment it
// drains its previous one (block size shrinking as the set empties), which
// keeps all workers busy until the set is drained while results stay
// index-aligned and bit-identical to the serial runners (each fault is
// analyzed exactly, by the same record builder).
//
// Workers no longer pay full BDD re-synthesis or even per-worker node
// stores: one prototype engine is built with diffprop.New and every other
// worker receives a diffprop.Engine.Share — a view onto the same
// complement-edge manager, whose sharded unique table and lossy operation
// caches are safe for concurrent use. Every canonical function is built
// once, campaign-wide. CampaignConfig.Isolate restores the historical
// diffprop.Engine.Clone path (a structural manager-to-manager copy per
// worker) for isolation or A/B measurement. Sharing wins on memory, not
// speed: on two workers over the first 116 C1908s faults, cmd/bddbench
// measures the shared table at 0.98-1.02x the clones' throughput on ~40%
// less peak heap (EXPERIMENTS.md, caveat 12).
package analysis

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bdd"
	"repro/internal/chaos"
	"repro/internal/diffprop"
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Workers picks a worker count: n if positive, otherwise one per CPU.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// Progress observes a running campaign: done faults out of total. The
// runners invoke it serially (never from two goroutines at once), after
// every completed fault.
type Progress func(done, total int)

// CampaignConfig tunes a campaign run.
type CampaignConfig struct {
	// Workers is the number of analysis engines run in parallel
	// (0 = one per CPU; capped at the fault count).
	Workers int
	// Progress, when non-nil, is called after each analyzed fault.
	Progress Progress
	// Context, when non-nil, cancels the campaign: workers observe
	// cancellation between faults, the partial index-aligned study is
	// returned with unreached faults marked Skipped, and
	// CampaignStats.Canceled is set. Nil means run to completion.
	Context context.Context
	// FaultOps caps the charged BDD operations of a single fault analysis
	// and FaultTimeout its wall-clock time (zero = unlimited). A fault
	// blowing either bound degrades to a random-vector estimate marked
	// Approximate and counted in CampaignStats.Degraded.
	FaultOps     int64
	FaultTimeout time.Duration
	// Recovery configures each engine's graceful-recovery ladder between
	// "budget blown" and "degrade to simulation": a BDD node-count
	// watermark, capped sift passes, and one relaxed-budget retry (see
	// diffprop.Recovery). The zero value keeps the historical
	// degrade-immediately behavior.
	Recovery diffprop.Recovery
	// MemLimit is the campaign memory governor's heap ceiling in bytes.
	// Zero adopts GOMEMLIMIT when one is set (debug.SetMemoryLimit);
	// negative — or zero without GOMEMLIMIT — disables the governor. Near
	// the ceiling the governor parks workers (all but one) until the heap
	// recedes, trading throughput for not OOMing.
	MemLimit int64
	// MemPoll is the governor's heap sampling period (zero selects a
	// default).
	MemPoll time.Duration
	// memSample overrides the governor's heap sampler in tests.
	memSample func() int64
	// Isolate gives every worker its own cloned BDD manager (the historical
	// pre-shared-table behavior) instead of a shared view onto the
	// prototype's node store. Sharing is the default: it builds every
	// canonical function once and keeps peak heap flat as workers are
	// added, at the clones' throughput (two C1908s workers: 0.98-1.02x,
	// ~40% less peak heap; see the package doc). Isolation trades that for
	// complete independence between workers — useful as an A/B baseline
	// and when a workload's recovery ladders thrash the shared table.
	Isolate bool
	// FallbackVectors and FallbackSeed parameterize the degradation
	// estimate (zero selects DefaultFallbackVectors / DefaultFallbackSeed).
	// The estimate is a pure function of (circuit, vectors, seed, fault),
	// so degraded records are identical across schedules and resumes.
	FallbackVectors int
	FallbackSeed    int64
	// Checkpoint, when non-nil, persists every finished record (by fault
	// index) as it completes. A persist failure aborts the campaign.
	Checkpoint *Checkpointer
	// Resume maps fault indices to previously persisted record lines
	// (from LoadCheckpoint/ResumeCheckpoint); those indices are decoded
	// instead of re-analyzed and counted in CampaignStats.Resumed.
	Resume map[int]json.RawMessage
	// Obs, when non-nil, attaches the observability layer: a live
	// /progress heartbeat, per-fault latency and outcome metrics,
	// structured worker logs, and (when Obs.Tracer is set) one trace span
	// per fault. Nil — the default — keeps the per-fault hot path free of
	// clock reads and allocations.
	Obs *obs.Observer
	// Chaos, when non-nil, activates the deterministic fault-injection
	// harness: forced budget/node-limit aborts, worker panics, checkpoint
	// write/fsync failures, per-fault latency and governor memory-sampler
	// lies, selected by seeded per-point rules (see chaos.Config). Nil —
	// the default — compiles to literal no-ops on the per-fault hot path.
	Chaos *chaos.Config
	// Calibrate configures budget self-calibration: the per-fault op
	// budget and the ladder's retry multiplier are learned from the
	// op-cost distribution of the first Calibration.Warmup exact faults
	// (and re-derived as the campaign progresses) instead of hand-tuned
	// FaultOps/Recovery values. The zero value disables calibration.
	Calibrate Calibration
	// Order selects the fault dispatch order (see OrderPolicy). The zero
	// value, OrderIndex, keeps the historical raw-index dispatch; OrderCone
	// and OrderLevel reorder the dispatch sequence for cone locality while
	// records stay index-aligned and bit-identical to serial runs.
	Order OrderPolicy
	// FullScan switches every engine to the historical full-gate-scan
	// propagation instead of the cone-restricted worklist (see
	// diffprop.Engine.SetFullScanReference). Results are bit-identical
	// either way; the scan is kept as the differential-testing reference
	// and the seed baseline of the scheduling benchmark.
	FullScan bool
	// Name labels the campaign in heartbeats and logs. Empty selects a
	// default derived from the fault model and circuit name.
	Name string
}

// budget extracts the per-fault resource budget.
func (cfg CampaignConfig) budget() diffprop.FaultBudget {
	return diffprop.FaultBudget{Ops: cfg.FaultOps, Wall: cfg.FaultTimeout}
}

// ctx returns the configured context, defaulting to Background.
func (cfg CampaignConfig) ctx() context.Context {
	if cfg.Context != nil {
		return cfg.Context
	}
	return context.Background()
}

// CampaignStats reports what a campaign actually did at runtime: scheduling
// shape, total analysis work, and the behavior of the BDD substrate
// aggregated over all worker engines. It describes how the work was
// executed, not what was computed — serial and parallel runs of the same
// fault set produce identical Records but different Stats.
type CampaignStats struct {
	// Workers is the number of engines the faults were dispatched over.
	Workers int
	// Faults is the number of faults analyzed.
	Faults int
	// Order is the dispatch policy the faults were scheduled under.
	Order OrderPolicy
	// GateEvaluations totals the gates whose difference function was
	// computed across all faults; selective trace skipped the rest.
	GateEvaluations int64
	// GatesVisited totals the gates every propagation loop examined and
	// GatesSkipped the gates cone-restricted propagation never touched;
	// their sum is analyses × gate count, and the skipped share is the
	// structural saving over the full-scan reference.
	GatesVisited int64
	GatesSkipped int64
	// Rebuilds counts generational BDD-manager GC passes over all engines.
	Rebuilds int
	// NodesReclaimed totals the dead nodes those GC passes dropped.
	NodesReclaimed int64
	// Sifts counts recovery-ladder variable-reordering runs over all
	// engines.
	Sifts int
	// PeakNodes is the largest node table any single engine reached.
	PeakNodes int
	// Cache aggregates BDD apply/ite/not cache hits and misses over all
	// engines.
	Cache bdd.CacheStats
	// Elapsed is the campaign wall-clock time.
	Elapsed time.Duration
	// Canceled reports that the campaign's context was cancelled before
	// the fault set drained; unreached records are marked Skipped.
	Canceled bool
	// Degraded counts faults that blew their resource budget and carry a
	// simulation estimate instead of an exact detectability.
	Degraded int
	// Errored counts faults whose analysis panicked; their records carry
	// the message in Err and nothing else.
	Errored int
	// Resumed counts records restored from a checkpoint instead of being
	// re-analyzed.
	Resumed int
	// Retried counts faults re-attempted under the ladder's relaxed budget;
	// Rescued is the subset whose retry completed exactly (rescued faults
	// are counted in Faults as exact records, not in Degraded).
	Retried int
	Rescued int
	// MemParkEvents counts worker park transitions under heap pressure and
	// MaxParked the most workers simultaneously parked.
	MemParkEvents int
	MaxParked     int
	// ChaosInjected counts chaos-harness injections that fired during the
	// run (0 without a chaos config).
	ChaosInjected int64
	// CalibrationBudgetOps and CalibrationRetryMult are the self-calibrated
	// per-fault bounds at campaign end (zero when calibration is off or
	// its warmup window never filled); CalibrationUpdates counts the
	// published calibration generations.
	CalibrationBudgetOps int64
	CalibrationRetryMult float64
	CalibrationUpdates   int
}

// String renders the stats as a one-line summary for -v style output.
func (s CampaignStats) String() string {
	out := fmt.Sprintf(
		"workers=%d faults=%d gate-evals=%d rebuilds=%d peak-nodes=%d cache-hit=%.1f%% elapsed=%s",
		s.Workers, s.Faults, s.GateEvaluations, s.Rebuilds, s.PeakNodes,
		100*s.Cache.HitRate(), s.Elapsed.Round(time.Millisecond))
	if s.Order != OrderIndex {
		out += fmt.Sprintf(" order=%s", s.Order)
	}
	if total := s.GatesVisited + s.GatesSkipped; total > 0 && s.GatesSkipped > 0 {
		out += fmt.Sprintf(" cone-skip=%.1f%%", 100*float64(s.GatesSkipped)/float64(total))
	}
	if s.Resumed > 0 {
		out += fmt.Sprintf(" resumed=%d", s.Resumed)
	}
	if s.Degraded > 0 {
		out += fmt.Sprintf(" degraded=%d", s.Degraded)
	}
	if s.Retried > 0 {
		out += fmt.Sprintf(" retried=%d rescued=%d", s.Retried, s.Rescued)
	}
	if s.Sifts > 0 {
		out += fmt.Sprintf(" sifts=%d", s.Sifts)
	}
	if s.Errored > 0 {
		out += fmt.Sprintf(" errored=%d", s.Errored)
	}
	if s.MemParkEvents > 0 {
		out += fmt.Sprintf(" mem-parks=%d max-parked=%d", s.MemParkEvents, s.MaxParked)
	}
	if s.ChaosInjected > 0 {
		out += fmt.Sprintf(" chaos-injected=%d", s.ChaosInjected)
	}
	if s.CalibrationUpdates > 0 {
		out += fmt.Sprintf(" calibrated(ops=%d retry=%.0fx updates=%d)",
			s.CalibrationBudgetOps, s.CalibrationRetryMult, s.CalibrationUpdates)
	}
	if s.Canceled {
		out += " canceled"
	}
	return out
}

// EngineStats views the engine-level portion of the campaign totals as a
// diffprop.Stats — the type whose Merge method defines the one aggregation
// rule for combining per-engine counters (sum the additive counters, max
// the PeakNodes high-water mark, accumulate the cache stats). Analyses is
// left zero: CampaignStats.Faults counts faults, not engine propagations
// (one fault may run several).
func (s *CampaignStats) EngineStats() diffprop.Stats {
	return diffprop.Stats{
		GateEvaluations: s.GateEvaluations,
		GatesVisited:    s.GatesVisited,
		GatesSkipped:    s.GatesSkipped,
		Rebuilds:        s.Rebuilds,
		NodesReclaimed:  s.NodesReclaimed,
		Sifts:           s.Sifts,
		PeakNodes:       s.PeakNodes,
		Cache:           s.Cache,
	}
}

// add folds one worker engine's counters into the campaign totals via the
// shared diffprop.Stats.Merge rule.
func (s *CampaignStats) add(es diffprop.Stats) {
	agg := s.EngineStats()
	agg.Merge(es)
	s.GateEvaluations = agg.GateEvaluations
	s.GatesVisited = agg.GatesVisited
	s.GatesSkipped = agg.GatesSkipped
	s.Rebuilds = agg.Rebuilds
	s.NodesReclaimed = agg.NodesReclaimed
	s.Sifts = agg.Sifts
	s.PeakNodes = agg.PeakNodes
	s.Cache = agg.Cache
}

// prepareEngines builds the prototype engine, runs prep on it (nil for
// none), and derives one engine per worker. By default workers get
// diffprop.Engine.Share views onto the prototype's manager — one shared
// node store for the whole campaign. With isolate set, each worker
// instead receives a diffprop.Engine.Clone (a structural
// manager-to-manager copy); clones are taken concurrently — Transfer only
// reads the source — but strictly before any worker starts analyzing. The
// shared working circuit's lazy topology caches are warmed here so workers
// only ever read them.
func prepareEngines(c *netlist.Circuit, opts *diffprop.Options, workers int, isolate bool, prep func(*diffprop.Engine)) ([]*diffprop.Engine, error) {
	proto, err := diffprop.New(c, opts)
	if err != nil {
		return nil, fmt.Errorf("analysis: parallel run failed: %w", err)
	}
	work := proto.Circuit
	work.Fanout()
	work.Levels()
	work.MaxLevelsToPO()
	if prep != nil {
		prep(proto)
	}
	engines := make([]*diffprop.Engine, workers)
	engines[0] = proto
	if !isolate {
		for w := 1; w < workers; w++ {
			engines[w] = proto.Share()
		}
		return engines, nil
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			engines[w] = proto.Clone()
		}(w)
	}
	wg.Wait()
	return engines, nil
}

// runCampaign drains indices 0..total-1 through the worker engines via an
// atomic work-stealing counter. analyze(e, w, i) must write its result to
// its own index; it runs concurrently on distinct engines (w is the
// engine's worker slot, for event attribution) and reports how the
// record was produced plus any fatal persistence error. skip[i] (nil for
// none) marks indices restored from a checkpoint, which are counted as
// done without being re-analyzed.
//
// Workers claim guided-size blocks of contiguous dispatch positions
// rather than single faults: neighboring faults share fan-out cones, so
// analyzing them on the same engine keeps its operation caches warm
// (single-index dispatch costs ~20% extra apply work on c1355s). Block
// size shrinks with the remaining work, so the tail still balances across
// workers. sched (nil = index order) permutes dispatch positions into
// fault indices and aligns claims to its cone clusters; records still
// land at their original indices, so the study layout is
// schedule-independent.
//
// Workers observe cancellation of cfg's context between faults — including
// inside a claimed block — and drain out promptly, leaving the remaining
// indices untouched. A persistence error likewise stops the campaign; the
// first one is returned.
//
// inj (nil = chaos off) feeds the governor's sampler lies and the final
// injection count; the per-fault injections themselves ride in through
// the analyze closure. cal (nil = calibration off) is consulted by each
// worker between faults: one atomic generation load on the hot path, a
// re-arm of the worker's own engine when the calibrator published new
// bounds — never touching an engine whose fault is in flight.
func runCampaign(engines []*diffprop.Engine, total int, cfg CampaignConfig, skip []bool, sched *schedule, instr *campaignInstr, inj *chaos.Injector, cal *calibrator, analyze func(e *diffprop.Engine, w, i int) (faultOutcome, error)) (CampaignStats, error) {
	start := time.Now()
	ctx := cfg.ctx()
	instr.setup(engines)
	if inj.Has(chaos.PointMemSample) {
		cfg.memSample = chaosMemSample(inj, cfg.memSample)
	}
	gov := newGovernor(cfg, len(engines), instr)
	defer gov.stop()
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup

		mu       sync.Mutex // guards the counters below and serializes Progress
		done     int
		analyzed int
		degraded int
		errored  int
		resumed  int
		retried  int
		rescued  int
		firstErr error
	)
	for i := 0; i < total; i++ {
		if skip != nil && skip[i] {
			resumed++
		}
	}
	done = resumed
	instr.resumed(resumed)
	if cfg.Progress != nil && resumed > 0 {
		cfg.Progress(done, total)
	}
	halted := func() bool { return stop.Load() || ctx.Err() != nil }
	for w, e := range engines {
		wg.Add(1)
		go func(w int, e *diffprop.Engine) {
			defer wg.Done()
			defer instr.workerDrain(w)
			// A worker only returns when the fault set is drained or the
			// campaign is halting; either way any workers the governor still
			// holds parked must be woken so the campaign can finish.
			defer gov.release()
			instr.workerStart(w)
			var calGen uint64
			for {
				if halted() {
					return
				}
				gov.admit(w, e, halted)
				lo := int(next.Load())
				if lo >= total {
					return
				}
				size := (total - lo) / (2 * len(engines))
				if size < 1 {
					size = 1
				}
				hi := lo + size
				if hi > total {
					hi = total
				}
				// Cluster-aligned claiming: trim the block to the cone
				// cluster boundary before racing for it, so a cluster is
				// analyzed by one engine unless it outgrows the block.
				hi = sched.trim(lo, hi)
				if !next.CompareAndSwap(int64(lo), int64(hi)) {
					continue
				}
				instr.workerClaim(w, lo, hi-lo)
				for j := lo; j < hi; j++ {
					i := sched.index(j)
					if skip != nil && skip[i] {
						continue
					}
					if halted() {
						return
					}
					if cal != nil {
						calGen = cal.apply(e, calGen)
					}
					t0 := instr.faultStart()
					// Shared engines analyze under the table's read lock so
					// recovery ladders and governor GCs on sibling views
					// cannot re-root the good functions mid-fault. Unshared
					// engines get a no-op unlock.
					unlock := e.AnalysisLock()
					outcome, err := analyze(e, w, i)
					unlock()
					if cal != nil {
						cal.observe(outcome, e.AnalysisOps())
					}
					instr.faultDone(e, w, i, outcome, t0)
					mu.Lock()
					done++
					analyzed++
					switch outcome {
					case outcomeDegraded:
						degraded++
					case outcomeDegradedAfterRetry:
						degraded++
						retried++
					case outcomeRescued:
						retried++
						rescued++
					case outcomeErrored:
						errored++
					}
					if err != nil {
						if firstErr == nil {
							firstErr = err
						}
						stop.Store(true)
					}
					if cfg.Progress != nil {
						cfg.Progress(done, total)
					}
					mu.Unlock()
				}
			}
		}(w, e)
	}
	wg.Wait()
	gov.stop()
	stats := CampaignStats{
		Workers:  len(engines),
		Order:    cfg.Order,
		Faults:   analyzed,
		Elapsed:  time.Since(start),
		Canceled: ctx.Err() != nil,
		Degraded: degraded,
		Errored:  errored,
		Resumed:  resumed,
		Retried:  retried,
		Rescued:  rescued,
	}
	stats.MemParkEvents, stats.MaxParked = gov.counters()
	stats.ChaosInjected = inj.Injected()
	stats.CalibrationBudgetOps, stats.CalibrationRetryMult, stats.CalibrationUpdates = cal.snapshot()
	for _, e := range engines {
		stats.add(e.Stats())
	}
	instr.finish(stats)
	return stats, firstErr
}

// newCampaignInjector builds the chaos injector for one campaign run (nil
// when cfg.Chaos is unset or rule-less — every injector method is then a
// nil-receiver no-op) and attaches it to the observability logger, the
// flight recorder's injection audit trail, and the checkpointer's
// write/fsync seams.
func newCampaignInjector(cfg CampaignConfig, instr *campaignInstr) *chaos.Injector {
	inj := chaos.New(cfg.Chaos)
	if inj == nil {
		return nil
	}
	if cfg.Obs != nil {
		inj.SetLogger(cfg.Obs.Logger())
	}
	if instr != nil && instr.flight != nil {
		fl := instr.flight
		inj.SetEventHook(func(p chaos.Point, key int) {
			fl.Record(obs.FlightChaos, obs.FlightLabelByName(p.String()), -1, key, 0, 0)
		})
	}
	if cfg.Checkpoint != nil {
		cfg.Checkpoint.SetChaos(inj)
	}
	return inj
}

// chaosMemSample wraps the governor's heap sampler with the injector's
// memsample rules: a firing sample reports the rule's fake heap value,
// all others delegate to the real sampler.
func chaosMemSample(inj *chaos.Injector, next func() int64) func() int64 {
	if next == nil {
		next = heapSample
	}
	return func() int64 {
		if heap, ok := inj.MemSample(); ok {
			return heap
		}
		return next()
	}
}

// resumeDecode restores checkpointed records into their slots and returns
// the skip mask. decode(i, raw) must unmarshal raw into records[i].
func resumeDecode(total int, resume map[int]json.RawMessage, decode func(i int, raw json.RawMessage) error) ([]bool, error) {
	if len(resume) == 0 {
		return nil, nil
	}
	skip := make([]bool, total)
	for i, raw := range resume {
		if i < 0 || i >= total {
			return nil, fmt.Errorf("analysis: checkpoint record index %d out of range for %d faults", i, total)
		}
		if err := decode(i, raw); err != nil {
			return nil, fmt.Errorf("analysis: checkpoint record %d: %w", i, err)
		}
		skip[i] = true
	}
	return skip, nil
}

// RunStuckAtCampaign analyzes the fault set with work-stealing dispatch
// over cfg.Workers cloned engines and returns a study whose Records are
// bit-identical and index-aligned to the serial RunStuckAt: every fault is
// analyzed exactly, so the scheduling cannot change any result, only the
// wall clock. Fault sites must refer to the two-input decomposition of c
// (the working circuit of any engine built from c), which is
// deterministic.
func RunStuckAtCampaign(c *netlist.Circuit, opts *diffprop.Options, fs []faults.StuckAt, cfg CampaignConfig) (StuckAtStudy, error) {
	workers := Workers(cfg.Workers)
	if workers > len(fs) {
		workers = len(fs)
	}
	if workers < 1 {
		workers = 1
	}
	engines, err := prepareEngines(c, opts, workers, cfg.Isolate, nil)
	if err != nil {
		return StuckAtStudy{}, err
	}
	for _, e := range engines {
		e.SetFaultBudget(cfg.budget())
		e.SetRecovery(cfg.Recovery)
		e.SetFullScanReference(cfg.FullScan)
	}
	work := engines[0].Circuit
	toPO := work.MaxLevelsToPO()
	levels := work.Levels()
	sched := newSchedule(cfg.Order, len(fs), func(i int) int {
		return stuckAtSite(fs[i])
	}, work, engines[0].FeedbackChecker())
	records := make([]StuckAtRecord, len(fs))
	skip, err := resumeDecode(len(fs), cfg.Resume, func(i int, raw json.RawMessage) error {
		return json.Unmarshal(raw, &records[i])
	})
	if err != nil {
		return StuckAtStudy{}, err
	}
	fb := newFallback(cfg.FallbackVectors, cfg.FallbackSeed)
	if cfg.Obs != nil {
		fb.log = cfg.Obs.Log
	}
	instr := newCampaignInstr(cfg, "stuckat "+work.Name, len(fs), func(i int) string {
		return fs[i].Describe(work)
	})
	inj := newCampaignInjector(cfg, instr)
	cal := newCalibrator(cfg, instr)
	analyzed := make([]bool, len(fs))
	stats, runErr := runCampaign(engines, len(fs), cfg, skip, sched, instr, inj, cal, func(e *diffprop.Engine, w, i int) (faultOutcome, error) {
		rec, outcome := analyzeStuckAt(e, fs[i], toPO, levels, fb, chaosHook(inj, e, i), instr.ladderHook(w, i))
		records[i] = rec
		analyzed[i] = true
		if cfg.Checkpoint != nil {
			if err := cfg.Checkpoint.Append(i, rec); err != nil {
				return outcome, err
			}
		}
		return outcome, nil
	})
	for i := range records {
		if !analyzed[i] && (skip == nil || !skip[i]) {
			records[i] = StuckAtRecord{Fault: fs[i], Skipped: true}
		}
	}
	study := stuckAtHeader(work)
	study.Records = records
	study.Stats = stats
	return study, runErr
}

// RunStuckAtParallel analyzes the fault set with `workers` engines
// (0 = one per CPU). It is RunStuckAtCampaign without progress reporting,
// kept for callers that only want to set the parallelism.
func RunStuckAtParallel(c *netlist.Circuit, opts *diffprop.Options, fs []faults.StuckAt, workers int) (StuckAtStudy, error) {
	return RunStuckAtCampaign(c, opts, fs, CampaignConfig{Workers: workers})
}

// RunBridgingCampaign is the bridging-fault counterpart of
// RunStuckAtCampaign.
func RunBridgingCampaign(c *netlist.Circuit, opts *diffprop.Options, bs []faults.Bridging, kind faults.BridgeKind, population int, sampled bool, cfg CampaignConfig) (BridgingStudy, error) {
	workers := Workers(cfg.Workers)
	if workers > len(bs) {
		workers = len(bs)
	}
	if workers < 1 {
		workers = 1
	}
	// The feedback-reachability table is built on the prototype before
	// cloning so all workers share one immutable copy instead of each
	// building its own.
	engines, err := prepareEngines(c, opts, workers, cfg.Isolate, func(e *diffprop.Engine) {
		e.FeedbackChecker()
	})
	if err != nil {
		return BridgingStudy{}, err
	}
	for _, e := range engines {
		e.SetFaultBudget(cfg.budget())
		e.SetRecovery(cfg.Recovery)
		e.SetFullScanReference(cfg.FullScan)
	}
	work := engines[0].Circuit
	toPO := work.MaxLevelsToPO()
	// A bridge seeds differences at both wires; the lower one (U, earlier
	// in topological order) anchors its cluster.
	sched := newSchedule(cfg.Order, len(bs), func(i int) int {
		return bs[i].U
	}, work, engines[0].FeedbackChecker())
	records := make([]BridgingRecord, len(bs))
	skip, err := resumeDecode(len(bs), cfg.Resume, func(i int, raw json.RawMessage) error {
		return json.Unmarshal(raw, &records[i])
	})
	if err != nil {
		return BridgingStudy{}, err
	}
	fb := newFallback(cfg.FallbackVectors, cfg.FallbackSeed)
	if cfg.Obs != nil {
		fb.log = cfg.Obs.Log
	}
	instr := newCampaignInstr(cfg, "bridging "+work.Name, len(bs), func(i int) string {
		return bs[i].Describe(work)
	})
	inj := newCampaignInjector(cfg, instr)
	cal := newCalibrator(cfg, instr)
	analyzed := make([]bool, len(bs))
	stats, runErr := runCampaign(engines, len(bs), cfg, skip, sched, instr, inj, cal, func(e *diffprop.Engine, w, i int) (faultOutcome, error) {
		rec, outcome := analyzeBridging(e, bs[i], toPO, fb, chaosHook(inj, e, i), instr.ladderHook(w, i))
		records[i] = rec
		analyzed[i] = true
		if cfg.Checkpoint != nil {
			if err := cfg.Checkpoint.Append(i, rec); err != nil {
				return outcome, err
			}
		}
		return outcome, nil
	})
	for i := range records {
		if !analyzed[i] && (skip == nil || !skip[i]) {
			records[i] = BridgingRecord{Fault: bs[i], Skipped: true}
		}
	}
	study := bridgingHeader(work, kind, population, sampled)
	study.Records = records
	study.Stats = stats
	return study, runErr
}

// RunBridgingParallel is RunBridgingCampaign without progress reporting.
func RunBridgingParallel(c *netlist.Circuit, opts *diffprop.Options, bs []faults.Bridging, kind faults.BridgeKind, population int, sampled bool, workers int) (BridgingStudy, error) {
	return RunBridgingCampaign(c, opts, bs, kind, population, sampled, CampaignConfig{Workers: workers})
}
