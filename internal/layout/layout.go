// Package layout implements the paper's layout-free wire-distance
// approximation (§2.2) used to weight the random selection of bridging
// faults: every gate receives an X coordinate equal to its level (distance
// in levels from the primary inputs) and a Y coordinate equal to the
// average of its fan-in Y coordinates, with the n primary inputs pinned at
// Y = 0..n-1 in benchmark declaration order. Distances between candidate
// bridge wires are normalized to the largest distance over all potentially
// detectable NFBFs and faults are drawn with probability density
// f(z) = (1/θ)·e^(-z/θ), reflecting that physically close wires short more
// often.
package layout

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/faults"
	"repro/internal/netlist"
)

// Placement holds the estimated coordinates of every net.
type Placement struct {
	X []float64
	Y []float64
}

// Place computes the paper's approximate placement for the circuit.
func Place(c *netlist.Circuit) Placement {
	n := c.NumNets()
	p := Placement{X: make([]float64, n), Y: make([]float64, n)}
	levels := c.Levels()
	for i, in := range c.Inputs {
		p.Y[in] = float64(i)
	}
	for id, g := range c.Gates {
		p.X[id] = float64(levels[id])
		if g.Type == netlist.Input {
			continue
		}
		sum := 0.0
		for _, f := range g.Fanin {
			sum += p.Y[f]
		}
		p.Y[id] = sum / float64(len(g.Fanin))
	}
	return p
}

// Distance returns the Euclidean distance between the two nets' estimated
// positions.
func (p Placement) Distance(u, v int) float64 {
	dx := p.X[u] - p.X[v]
	dy := p.Y[u] - p.Y[v]
	return math.Sqrt(dx*dx + dy*dy)
}

// NormalizedDistances returns each candidate bridge's distance divided by
// the maximum distance over the candidate set, as the paper prescribes.
// All-zero distances (degenerate placements) normalize to zero.
func NormalizedDistances(p Placement, candidates []faults.Bridging) []float64 {
	out := make([]float64, len(candidates))
	max := 0.0
	for i, b := range candidates {
		out[i] = p.Distance(b.U, b.V)
		if out[i] > max {
			max = out[i]
		}
	}
	if max > 0 {
		for i := range out {
			out[i] /= max
		}
	}
	return out
}

// SampleNFBFs draws up to n distinct bridging faults from the candidate
// population without replacement, with weights e^(-z/θ) over the
// normalized distances z — an exponential preference for physically close
// wires. θ plays the paper's role of tuning the fault-set size versus
// locality; the draw is deterministic for a fixed seed. If n >= the
// population, the entire population is returned (as the paper does for its
// four smallest circuits). The sample comes back in (U, V) order.
func SampleNFBFs(c *netlist.Circuit, candidates []faults.Bridging, n int, theta float64, seed int64) []faults.Bridging {
	if theta <= 0 {
		panic(fmt.Sprintf("layout: theta must be positive, got %v", theta))
	}
	if n >= len(candidates) {
		return append([]faults.Bridging(nil), candidates...)
	}
	p := Place(c)
	z := NormalizedDistances(p, candidates)
	rng := rand.New(rand.NewSource(seed))
	// Weighted sampling without replacement (Efraimidis–Spirakis): draw
	// key u^(1/w) per item, in candidate order, and keep the n largest
	// keys in a bounded min-heap whose root is the weakest kept item.
	kept := make(keyHeap, 0, n)
	for i := range candidates {
		w := math.Exp(-z[i] / theta)
		u := rng.Float64()
		// u^(1/w) computed in log space for numerical stability.
		key := math.Log(u) / w
		switch {
		case len(kept) < n:
			kept = append(kept, keyed{idx: i, key: key})
			if len(kept) == n {
				heap.Init(&kept)
			}
		case n > 0 && key > kept[0].key:
			// A tie loses to the kept item: it has the lower index.
			kept[0] = keyed{idx: i, key: key}
			heap.Fix(&kept, 0)
		}
	}
	out := make([]faults.Bridging, n)
	for i, k := range kept {
		out[i] = candidates[k.idx]
	}
	// Keep the sample in a stable, readable order.
	sort.Slice(out, func(a, b int) bool {
		if out[a].U != out[b].U {
			return out[a].U < out[b].U
		}
		return out[a].V < out[b].V
	})
	return out
}

// keyed is a candidate's index and its sampling key.
type keyed struct {
	idx int
	key float64
}

// keyHeap is a min-heap (container/heap) of keyed items, weakest first:
// the lowest key, and among equal keys the highest index, so the n items
// it keeps are the n largest keys with ties going to the lower candidate
// index.
type keyHeap []keyed

func (h keyHeap) Len() int { return len(h) }
func (h keyHeap) Less(a, b int) bool {
	if h[a].key != h[b].key {
		return h[a].key < h[b].key
	}
	return h[a].idx > h[b].idx
}
func (h keyHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *keyHeap) Push(x any)   { *h = append(*h, x.(keyed)) }
func (h *keyHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// MeanDistance reports the average normalized distance of a fault set
// under the placement — used to sanity-check that sampling favors close
// wires.
func MeanDistance(p Placement, set []faults.Bridging, norm float64) float64 {
	if len(set) == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range set {
		sum += p.Distance(b.U, b.V)
	}
	mean := sum / float64(len(set))
	if norm > 0 {
		mean /= norm
	}
	return mean
}

// MaxDistance returns the maximum pairwise distance over the candidates,
// the normalization constant of the paper's distance model.
func MaxDistance(p Placement, candidates []faults.Bridging) float64 {
	max := 0.0
	for _, b := range candidates {
		if d := p.Distance(b.U, b.V); d > max {
			max = d
		}
	}
	return max
}
