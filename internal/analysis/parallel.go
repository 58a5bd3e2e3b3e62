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
// Workers pay neither BDD re-synthesis nor per-worker node stores: one
// prototype engine is built with diffprop.New and every other worker
// receives a diffprop.Engine.Share — a view onto the same complement-edge
// manager, whose sharded unique table and lossy operation caches are safe
// for concurrent use. Every canonical function is built once,
// campaign-wide.
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
	// (zero = unlimited). A fault blowing it degrades to a random-vector
	// estimate marked Approximate and counted in CampaignStats.Degraded.
	FaultOps int64
	// Recovery configures each engine's graceful-recovery ladder between
	// "budget blown" and "degrade to simulation": a BDD node-count
	// watermark and one relaxed-budget retry (see diffprop.Recovery). The
	// zero value keeps the historical degrade-immediately behavior.
	Recovery diffprop.Recovery
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
	// write/fsync failures and per-fault latency, selected by seeded
	// per-point rules (see chaos.Config). Nil — the default — compiles to
	// literal no-ops on the per-fault hot path.
	Chaos *chaos.Config
	// Calibrate turns on budget self-calibration: the per-fault op
	// budget and the ladder's retry multiplier are learned from the
	// op-cost distribution of the first 32 exact faults (and re-derived
	// as the campaign progresses) instead of hand-tuned FaultOps/Recovery
	// values.
	Calibrate bool
	// Name labels the campaign in heartbeats and logs. Empty selects a
	// default derived from the fault model and circuit name.
	Name string
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
	// GateEvaluations totals the gates whose difference function was
	// computed across all faults; selective trace skipped the rest. A
	// primary-input unit's faults count the gates their records report.
	GateEvaluations int64
	// GatesVisited totals the gates every fault's propagation examined and
	// GatesSkipped the gates cone-restricted propagation never touched; a
	// primary-input unit walks no gate, so every fault it answers counts
	// them all as skipped. Their sum is analyses × gate count, and the
	// skipped share is the structural saving over the full-scan reference.
	GatesVisited int64
	GatesSkipped int64
	// Rebuilds counts generational BDD-manager GC passes over all engines.
	Rebuilds int
	// NodesReclaimed totals the dead nodes those GC passes dropped.
	NodesReclaimed int64
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
	// SharedUnits counts the units whose faults — both stuck-at polarities
	// of one primary input — were all answered by one shared analysis
	// (diffprop.Engine.StuckAtPI).
	SharedUnits int
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
	if total := s.GatesVisited + s.GatesSkipped; total > 0 && s.GatesSkipped > 0 {
		out += fmt.Sprintf(" cone-skip=%.1f%%", 100*float64(s.GatesSkipped)/float64(total))
	}
	if s.SharedUnits > 0 {
		out += fmt.Sprintf(" shared-units=%d", s.SharedUnits)
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
	if s.Errored > 0 {
		out += fmt.Sprintf(" errored=%d", s.Errored)
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
// left zero: CampaignStats.Faults counts faults, not engine analyses —
// one fault may run several (the recovery ladder's retry), and one
// analysis can serve several faults (a primary-input unit).
func (s *CampaignStats) EngineStats() diffprop.Stats {
	return diffprop.Stats{
		GateEvaluations: s.GateEvaluations,
		GatesVisited:    s.GatesVisited,
		GatesSkipped:    s.GatesSkipped,
		Rebuilds:        s.Rebuilds,
		NodesReclaimed:  s.NodesReclaimed,
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
	s.PeakNodes = agg.PeakNodes
	s.Cache = agg.Cache
}

// prepareEngines builds the prototype engine and derives one
// diffprop.Engine.Share view per worker — one node store for the whole
// campaign — each armed with cfg's per-fault budget and recovery ladder.
// The worker count is cfg.Workers capped at the fault count (at least
// one). It returns the working circuit, whose lazy topology caches are
// warmed here so workers only ever read them. When cfg.Resume restores
// every fault there is nothing to analyze: it synthesizes no engine and
// returns only the working circuit the records refer to.
func prepareEngines(c *netlist.Circuit, opts *diffprop.Options, nFaults int, cfg CampaignConfig) (*netlist.Circuit, []*diffprop.Engine, error) {
	if nFaults > 0 && len(cfg.Resume) == nFaults {
		if err := c.Validate(); err != nil {
			return nil, nil, fmt.Errorf("analysis: parallel run failed: %w", err)
		}
		return c.Decompose2(), nil, nil
	}
	workers := Workers(cfg.Workers)
	if workers > nFaults {
		workers = nFaults
	}
	if workers < 1 {
		workers = 1
	}
	proto, err := diffprop.New(c, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: parallel run failed: %w", err)
	}
	work := proto.Circuit
	work.Fanout()
	work.Levels()
	work.MaxLevelsToPO()
	engines := make([]*diffprop.Engine, workers)
	engines[0] = proto
	for w := 1; w < workers; w++ {
		engines[w] = proto.Share()
	}
	for _, e := range engines {
		e.SetFaultBudget(cfg.FaultOps)
		e.SetRecovery(cfg.Recovery)
	}
	return work, engines, nil
}

// runCampaign drains indices 0..total-1 through the worker engines via an
// atomic work-stealing counter. analyze(e, w, i) must write its result to
// its own index; it runs concurrently on distinct engines (w is the
// engine's worker slot, for event attribution) and reports how the
// record was produced plus any fatal persistence error. skip[i] (nil for
// none) marks indices restored from a checkpoint, which are counted as
// done without being re-analyzed.
//
// units (nil = every fault alone) groups the faults one shared
// analysis can answer; a worker takes a unit whole, hands it to
// units.run, and analyzes its faults one by one when the shared analysis
// aborts. Per-fault latency of a shared unit is its wall time divided by
// its fault count; a unit feeds no calibration sample.
//
// Workers claim guided-size blocks of contiguous fault indices rather
// than single faults: neighboring faults share fan-out cones, so
// analyzing them on the same engine keeps its operation caches warm
// (single-index dispatch costs ~20% extra apply work on c1355s). Block
// size shrinks with the remaining work, so the tail still balances across
// workers.
//
// Workers observe cancellation of cfg's context between faults — including
// inside a claimed block — and drain out promptly, leaving the remaining
// indices untouched. A persistence error likewise stops the campaign; the
// first one is returned.
//
// inj (nil = chaos off) supplies the final injection count; the
// per-fault injections themselves ride in through the analyze closure.
// cal (nil = calibration off) is consulted by each worker between faults:
// one atomic generation load on the hot path, a re-arm of the worker's own
// engine when the calibrator published new bounds — never touching an
// engine whose fault is in flight.
func runCampaign(engines []*diffprop.Engine, total int, cfg CampaignConfig, skip []bool, units *siteUnits, instr *campaignInstr, inj *chaos.Injector, cal *calibrator, analyze func(e *diffprop.Engine, w, i int) (faultOutcome, error)) (CampaignStats, error) {
	start := time.Now()
	ctx := cfg.ctx()
	instr.setup(engines)
	var (
		next   atomic.Int64
		stop   atomic.Bool
		shared atomic.Int64 // units answered by one shared analysis
		wg     sync.WaitGroup

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
	// finish counts one analyzed fault and reports progress.
	finish := func(outcome faultOutcome, err error) {
		mu.Lock()
		defer mu.Unlock()
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
	}
	for w, e := range engines {
		wg.Add(1)
		go func(w int, e *diffprop.Engine) {
			defer wg.Done()
			defer instr.workerDrain(w)
			instr.workerStart(w)
			var calGen uint64
			var idx []int // the faults of the unit in hand
			for {
				if halted() {
					return
				}
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
				// A claim never splits a unit.
				hi = units.align(hi)
				if !next.CompareAndSwap(int64(lo), int64(hi)) {
					continue
				}
				instr.workerClaim(w, lo, hi-lo)
				for j := lo; j < hi; j = units.unitEnd(j) {
					idx = idx[:0]
					for i := j; i < units.unitEnd(j); i++ {
						if skip == nil || !skip[i] {
							idx = append(idx, i)
						}
					}
					if len(idx) == 0 {
						continue
					}
					if halted() {
						return
					}
					if cal != nil {
						calGen = cal.apply(e, calGen)
					}
					t0 := instr.faultStart()
					if len(idx) > 1 {
						unlock := e.AnalysisLock()
						ok, err := units.run(e, w, idx)
						unlock()
						if ok {
							// No calibration sample: a unit's ops per
							// fault do not predict a propagated fault's.
							instr.unitDone(e, w, idx, t0)
							shared.Add(1)
							for range idx {
								finish(outcomeExact, err)
								err = nil
							}
							continue
						}
						// The unit aborted or panicked: each fault takes the
						// per-fault path, the first one charged the wasted
						// unit's time.
					}
					for _, i := range idx {
						if i != idx[0] {
							if halted() {
								return
							}
							t0 = instr.faultStart()
						}
						// Shared engines analyze under the table's read lock
						// so recovery ladders on sibling views cannot re-root
						// the good functions mid-fault.
						// Unshared engines get a no-op unlock.
						unlock := e.AnalysisLock()
						outcome, err := analyze(e, w, i)
						unlock()
						if cal != nil {
							cal.observe(outcome, e.AnalysisOps())
						}
						instr.faultDone(e, w, i, outcome, t0)
						finish(outcome, err)
					}
				}
			}
		}(w, e)
	}
	wg.Wait()
	stats := CampaignStats{
		Workers:  len(engines),
		Faults:   analyzed,
		Elapsed:  time.Since(start),
		Canceled: ctx.Err() != nil,
		Degraded: degraded,
		Errored:  errored,
		Resumed:  resumed,
		Retried:  retried,
		Rescued:  rescued,
	}
	stats.SharedUnits = int(shared.Load())
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
// nil-receiver no-op) and attaches it to the campaign's event stream and
// the checkpointer's write/fsync seams.
func newCampaignInjector(cfg CampaignConfig, instr *campaignInstr) *chaos.Injector {
	inj := chaos.New(cfg.Chaos)
	if inj == nil {
		return nil
	}
	if instr != nil {
		inj.SetEventHook(instr.chaosHook())
	}
	if cfg.Checkpoint != nil {
		cfg.Checkpoint.SetChaos(inj)
	}
	return inj
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
// over cfg.Workers shared engine views and returns a study whose Records are
// bit-identical and index-aligned to the serial RunStuckAt: every fault is
// analyzed exactly, so the scheduling cannot change any result, only the
// wall clock. Adjacent faults on one primary input form a unit answered by
// one shared analysis (diffprop.Engine.StuckAtPI), which yields the
// per-fault records bit for bit. Fault sites must refer to the two-input
// decomposition of c (the working circuit of any engine built from c),
// which is deterministic.
func RunStuckAtCampaign(c *netlist.Circuit, opts *diffprop.Options, fs []faults.StuckAt, cfg CampaignConfig) (StuckAtStudy, error) {
	work, records, stats, err := runModel(stuckAtModel, c, opts, fs, cfg)
	if work == nil {
		return StuckAtStudy{}, err
	}
	study := stuckAtHeader(work)
	study.Records, study.Stats = records, stats
	return study, err
}

// RunBridgingCampaign is the bridging-fault counterpart of
// RunStuckAtCampaign.
func RunBridgingCampaign(c *netlist.Circuit, opts *diffprop.Options, bs []faults.Bridging, kind faults.BridgeKind, population int, sampled bool, cfg CampaignConfig) (BridgingStudy, error) {
	work, records, stats, err := runModel(bridgingModel, c, opts, bs, cfg)
	if work == nil {
		return BridgingStudy{}, err
	}
	study := bridgingHeader(work, kind, population, sampled)
	study.Records, study.Stats = records, stats
	return study, err
}

// runModel is the campaign runner of both fault models. It returns the
// working circuit (nil when the campaign could not start) and the
// index-aligned records of fs, with unreached faults marked skipped,
// alongside the run's stats and its first fatal error.
func runModel[F, R any](m faultModel[F, R], c *netlist.Circuit, opts *diffprop.Options, fs []F, cfg CampaignConfig) (*netlist.Circuit, []R, CampaignStats, error) {
	work, engines, err := prepareEngines(c, opts, len(fs), cfg)
	if err != nil {
		return nil, nil, CampaignStats{}, err
	}
	d := distancesOf(work)
	records := make([]R, len(fs))
	skip, err := resumeDecode(len(fs), cfg.Resume, func(i int, raw json.RawMessage) error {
		return json.Unmarshal(raw, &records[i])
	})
	if err != nil {
		return nil, nil, CampaignStats{}, err
	}
	fb := new(fallback)
	instr := newCampaignInstr(cfg, m.kind+" "+work.Name, len(fs), func(i int) string {
		return m.describe(fs[i], work)
	})
	inj := newCampaignInjector(cfg, instr)
	cal := newCalibrator(cfg, instr)
	draws := newChaosDraws(inj, len(fs))
	analyzed := make([]bool, len(fs))
	persist := func(i int) error {
		if cfg.Checkpoint == nil {
			return nil
		}
		return cfg.Checkpoint.Append(i, records[i])
	}
	var units *siteUnits
	if m.unit != nil {
		units = newSiteUnits(len(fs), func(i int) int {
			return m.unitSite(work, fs[i])
		}, func(e *diffprop.Engine, w int, idx []int) (bool, error) {
			// A fault with a chaos injection keeps its per-fault semantics.
			if draws.any(e, idx) {
				return false, nil
			}
			recs, ok := m.unit(e, fs, idx, d)
			if !ok {
				return false, nil
			}
			// Every record of the unit is kept before the first append
			// can fail and abort the campaign.
			for k, i := range idx {
				records[i], analyzed[i] = recs[k], true
			}
			for _, i := range idx {
				if err := persist(i); err != nil {
					return true, err
				}
			}
			return true, nil
		})
	}
	stats, runErr := runCampaign(engines, len(fs), cfg, skip, units, instr, inj, cal, func(e *diffprop.Engine, w, i int) (faultOutcome, error) {
		rec, outcome := analyze(m, e, fs[i], d, fb, draws.hook(e, i), instr.ladderHook(w, i))
		records[i], analyzed[i] = rec, true
		return outcome, persist(i)
	})
	for i := range records {
		if !analyzed[i] && (skip == nil || !skip[i]) {
			records[i] = m.skipped(fs[i])
		}
	}
	return work, records, stats, runErr
}
