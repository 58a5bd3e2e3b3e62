// Package atpg turns Difference Propagation into a deterministic test
// generator, the role the paper introduces it in (§1, §3): because DP
// yields the complete test set of every fault, test generation is simply
// minterm extraction, redundancy identification is an empty test set, and
// no fault is ever aborted. Fault dropping (simulating each new vector
// against the remaining faults) and a greedy set-cover compaction pass
// keep the generated sets small.
package atpg

import (
	"math/rand"

	"repro/internal/diffprop"
	"repro/internal/faults"
	"repro/internal/simulate"
)

// Result is the outcome of a test-generation campaign.
type Result struct {
	// Vectors is the generated test set, one bool per primary input in
	// declaration order.
	Vectors [][]bool
	// Redundant lists the faults proven to have no test at all.
	Redundant []faults.StuckAt
}

// GenerateStuckAt produces a test set detecting every detectable fault in
// fs. For each fault not already covered, the fault's complete test set is
// computed exactly and one test is extracted (don't-cares filled from the
// seeded generator); the new vector is then fault-simulated against the
// remaining faults so they drop out. Faults whose complete test set is
// empty are returned as proven redundant.
func GenerateStuckAt(e *diffprop.Engine, fs []faults.StuckAt, seed int64) Result {
	c := e.Circuit
	rng := rand.New(rand.NewSource(seed))
	res := Result{}
	remaining := make([]bool, len(fs))
	for i := range remaining {
		remaining[i] = true
	}
	for i, f := range fs {
		if !remaining[i] {
			continue
		}
		r := e.StuckAt(f)
		if !r.Detectable() {
			remaining[i] = false
			res.Redundant = append(res.Redundant, f)
			continue
		}
		// AnySat cubes are in BDD variable order; translate to primary-
		// input declaration order.
		cube := e.Manager().AnySat(r.Complete)
		v2i := e.VarToInput()
		vec := make([]bool, len(c.Inputs))
		for v, s := range cube {
			switch s {
			case 1:
				vec[v2i[v]] = true
			case 0:
				vec[v2i[v]] = false
			default:
				vec[v2i[v]] = rng.Intn(2) == 1
			}
		}
		res.Vectors = append(res.Vectors, vec)
		// Fault dropping: one-pattern simulation against survivors.
		p := simulate.FromVectors(len(c.Inputs), [][]bool{vec})
		for j := i; j < len(fs); j++ {
			if remaining[j] && simulate.CountBits(simulate.DetectStuckAt(c, fs[j], p)) > 0 {
				remaining[j] = false
			}
		}
	}
	return res
}

// Compact reduces a test set by greedy set cover: vectors are re-simulated
// against the fault list, then repeatedly the vector covering the most
// still-uncovered faults is kept until coverage matches the input set's.
// The result never detects fewer faults than the input vectors.
func Compact(e *diffprop.Engine, fs []faults.StuckAt, vectors [][]bool) [][]bool {
	if len(vectors) == 0 {
		return nil
	}
	c := e.Circuit
	p := simulate.FromVectors(len(c.Inputs), vectors)
	// detects[v] = fault indices detected by vector v.
	detects := make([][]int, len(vectors))
	covered := make([]bool, len(fs))
	coverable := 0
	for j, f := range fs {
		mask := simulate.DetectStuckAt(c, f, p)
		hit := false
		for v := 0; v < len(vectors); v++ {
			if mask[v/64]>>uint(v%64)&1 == 1 {
				detects[v] = append(detects[v], j)
				hit = true
			}
		}
		if hit {
			coverable++
		}
	}
	var out [][]bool
	for coverable > 0 {
		best, bestGain := -1, 0
		for v := range detects {
			gain := 0
			for _, j := range detects[v] {
				if !covered[j] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = v, gain
			}
		}
		if best < 0 {
			break
		}
		out = append(out, vectors[best])
		for _, j := range detects[best] {
			if !covered[j] {
				covered[j] = true
				coverable--
			}
		}
	}
	return out
}

// GenerateHybrid is the classic industrial flow: cheap random patterns
// first (fault-graded in one deductive pass per vector), deterministic
// top-off with Difference Propagation for whatever survives. The result
// detects every detectable fault, like GenerateStuckAt, usually with far
// fewer expensive deterministic derivations.
func GenerateHybrid(e *diffprop.Engine, fs []faults.StuckAt, randomBudget int, seed int64) Result {
	c := e.Circuit
	rng := rand.New(rand.NewSource(seed))
	res := Result{}
	remaining := make([]bool, len(fs))
	covered := 0
	for i := range remaining {
		remaining[i] = true
	}
	// Phase 1: random patterns, kept only when they cover something new.
	for i := 0; i < randomBudget && covered < len(fs); i++ {
		vec := make([]bool, len(c.Inputs))
		for j := range vec {
			vec[j] = rng.Intn(2) == 1
		}
		hit := false
		for j, d := range simulate.DeductiveStuckAt(c, fs, vec) {
			if d && remaining[j] {
				remaining[j] = false
				covered++
				hit = true
			}
		}
		if hit {
			res.Vectors = append(res.Vectors, vec)
		}
	}
	// Phase 2: deterministic top-off, with fault dropping.
	for i, f := range fs {
		if !remaining[i] {
			continue
		}
		r := e.StuckAt(f)
		if !r.Detectable() {
			remaining[i] = false
			res.Redundant = append(res.Redundant, f)
			continue
		}
		cube := e.Manager().AnySat(r.Complete)
		v2i := e.VarToInput()
		vec := make([]bool, len(c.Inputs))
		for v, s := range cube {
			if v2i[v] < 0 {
				continue
			}
			switch s {
			case 1:
				vec[v2i[v]] = true
			case 0:
				vec[v2i[v]] = false
			default:
				vec[v2i[v]] = rng.Intn(2) == 1
			}
		}
		res.Vectors = append(res.Vectors, vec)
		for j, d := range simulate.DeductiveStuckAt(c, fs, vec) {
			if d && remaining[j] {
				remaining[j] = false
			}
		}
	}
	return res
}

// StuckAtTestSetForBridges is the Millman–McCluskey style experiment the
// paper motivates its bridging study with: generate (and compact) a
// complete stuck-at test set, then fault-simulate it against a bridging
// fault set and report the bridging coverage achieved.
func StuckAtTestSetForBridges(e *diffprop.Engine, fs []faults.StuckAt, bs []faults.Bridging, seed int64) (vectors [][]bool, saCoverage, bfCoverage float64) {
	gen := GenerateStuckAt(e, fs, seed)
	vectors = Compact(e, fs, gen.Vectors)
	c := e.Circuit
	p := simulate.FromVectors(len(c.Inputs), vectors)
	sa := simulate.CoverageStuckAt(c, fs, p)
	bf := simulate.CoverageBridging(c, bs, p)
	return vectors, sa.Coverage(), bf.Coverage()
}
