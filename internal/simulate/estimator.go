package simulate

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/netlist"
)

// Estimator is a reusable random-vector detectability estimator: it
// precomputes one fixed-seed pattern block, the fault-free values over it,
// and the fan-out reachability table, then estimates any fault's
// detectability as the detected fraction of that block. It is the graceful
// degradation path for faults whose exact OBDD analysis blows its resource
// budget (in the spirit of sampled n-detection analysis): the estimate is
// statistically useful exactly where exact analysis is infeasible.
//
// The estimator is safe for concurrent use by multiple goroutines: all
// shared state is written once in NewEstimator, and per-call scratch is
// local. Building it warms the circuit's lazy fan-out cache so later
// concurrent cone extractions only read.
type Estimator struct {
	c     *netlist.Circuit
	p     *Patterns
	good  [][]uint64
	reach *faults.Reachability
}

// NewEstimator builds an estimator over `vectors` random patterns drawn
// from the seed. The same (circuit, vectors, seed) triple always yields
// the same estimates, which keeps degraded records deterministic across
// runs, workers, and checkpoint resumes.
func NewEstimator(c *netlist.Circuit, vectors int, seed int64) *Estimator {
	if vectors <= 0 {
		panic(fmt.Sprintf("simulate: estimator needs a positive vector count, got %d", vectors))
	}
	p := Random(len(c.Inputs), vectors, seed)
	return &Estimator{
		c:     c,
		p:     p,
		good:  GoodValues(c, p),
		reach: faults.NewReachability(c),
	}
}

// Vectors returns the size of the pattern block behind each estimate.
func (e *Estimator) Vectors() int { return e.p.Count }

// StuckAt estimates the fault's detectability as the fraction of the
// pattern block that detects it.
func (e *Estimator) StuckAt(f faults.StuckAt) float64 {
	det := detectStuckAt(e.c, f, e.p, e.good)
	return float64(CountBits(det)) / float64(e.p.Count)
}

// Bridging estimates the bridging fault's detectability. Like the exact
// engine, it panics on feedback bridges (the wired-logic model does not
// apply); the campaign layer screens these before degrading.
func (e *Estimator) Bridging(b faults.Bridging) float64 {
	if e.reach.IsFeedback(b.U, b.V) {
		panic(fmt.Sprintf("simulate: %v is a feedback bridge", b))
	}
	det := detectBridging(e.c, b, e.p, e.good, e.reach.Cone(b.U), e.reach.Cone(b.V))
	return float64(CountBits(det)) / float64(e.p.Count)
}
