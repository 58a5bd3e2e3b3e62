package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/circuits"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/netlist"
)

// The reference implementations below are the original quadratic
// bridging-fault population and sampling code: a map per screened pair,
// an appended output, and a full sort of the sampling keys. They are the
// oracles the enumeration and the top-n draw must match exactly.

// refTriviallyUndetectable is the map-based structural screen.
func refTriviallyUndetectable(c *netlist.Circuit, b faults.Bridging) bool {
	if c.IsOutput(b.U) || c.IsOutput(b.V) {
		return false
	}
	fo := c.Fanout()
	consumers := map[int]bool{}
	for _, g := range fo[b.U] {
		consumers[g] = true
	}
	for _, g := range fo[b.V] {
		consumers[g] = true
	}
	if len(consumers) == 0 {
		return true
	}
	for g := range consumers {
		gt := c.Gates[g].Type
		switch b.Kind {
		case faults.WiredAND:
			if gt != netlist.And && gt != netlist.Nand {
				return false
			}
		case faults.WiredOR:
			if gt != netlist.Or && gt != netlist.Nor {
				return false
			}
		}
		hasU, hasV := false, false
		for _, f := range c.Gates[g].Fanin {
			if f == b.U {
				hasU = true
			}
			if f == b.V {
				hasV = true
			}
		}
		if !hasU || !hasV {
			return false
		}
	}
	return true
}

// refCones is every net's fan-out cone, from netlist's own graph walk.
func refCones(c *netlist.Circuit) [][]bool {
	cones := make([][]bool, c.NumNets())
	for u := range cones {
		cones[u] = c.FanoutCone(u)
	}
	return cones
}

// refAllNFBFs tests every pair in both directions and appends.
func refAllNFBFs(c *netlist.Circuit, kind faults.BridgeKind) []faults.Bridging {
	n := c.NumNets()
	cones := refCones(c)
	var out []faults.Bridging
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if cones[u][v] || cones[v][u] {
				continue
			}
			b := faults.Bridging{U: u, V: v, Kind: kind}
			if refTriviallyUndetectable(c, b) {
				continue
			}
			out = append(out, b)
		}
	}
	return out
}

// refSampleNFBFs keys every candidate, sorts all keys and keeps the n
// largest.
func refSampleNFBFs(c *netlist.Circuit, candidates []faults.Bridging, n int, theta float64, seed int64) []faults.Bridging {
	if n >= len(candidates) {
		return append([]faults.Bridging(nil), candidates...)
	}
	return refTop(candidates, refRanking(c, candidates, theta, seed), n)
}

// refRanking is the reference draw's candidate indices, sorted by key,
// largest first. The sort does not depend on n, so one ranking serves
// every sample size of a seed.
func refRanking(c *netlist.Circuit, candidates []faults.Bridging, theta float64, seed int64) []int {
	z := layout.NormalizedDistances(layout.Place(c), candidates)
	rng := rand.New(rand.NewSource(seed))
	type scored struct {
		idx int
		key float64
	}
	items := make([]scored, len(candidates))
	for i := range candidates {
		w := math.Exp(-z[i] / theta)
		u := rng.Float64()
		items[i] = scored{idx: i, key: math.Log(u) / w}
	}
	sort.Slice(items, func(a, b int) bool { return items[a].key > items[b].key })
	ranking := make([]int, len(items))
	for i, it := range items {
		ranking[i] = it.idx
	}
	return ranking
}

// refTop is the reference sample of size n from a ranking, in (U, V)
// order.
func refTop(candidates []faults.Bridging, ranking []int, n int) []faults.Bridging {
	out := make([]faults.Bridging, n)
	for i := 0; i < n; i++ {
		out[i] = candidates[ranking[i]]
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].U != out[b].U {
			return out[a].U < out[b].U
		}
		return out[a].V < out[b].V
	})
	return out
}

// sameBridges reports whether two fault lists hold the same faults in the
// same order (nil and empty are the same list).
func sameBridges(a, b []faults.Bridging) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBridgingSetMatchesReference: on every catalog circuit, plain and
// decomposed, for both kinds, BridgingSet returns the reference's set in
// the reference's order, with the same population and sampled flag, for
// sample ceilings from 1 up to the whole population.
func TestBridgingSetMatchesReference(t *testing.T) {
	const theta = 0.3
	for _, name := range circuits.Names() {
		plain := circuits.MustGet(name)
		for _, c := range []*netlist.Circuit{plain, plain.Decompose2()} {
			for _, kind := range []faults.BridgeKind{faults.WiredAND, faults.WiredOR} {
				all := refAllNFBFs(c, kind)
				pop := len(all)
				if got := faults.AllNFBFs(c, kind); !sameBridges(got, all) {
					t.Fatalf("%s (%d nets) %v: AllNFBFs differs from the reference (%d vs %d faults)", name, c.NumNets(), kind, len(got), pop)
				}
				for _, seed := range []int64{1, 7, 1990} {
					ranking := refRanking(c, all, theta, seed)
					for _, max := range []int{1, 6, 450, 1000, pop - 1, pop} {
						if max < 1 {
							continue
						}
						set, gotPop, sampled := BridgingSet(c, kind, max, theta, seed)
						want := all
						if pop > max {
							want = refTop(all, ranking, max)
						}
						if gotPop != pop || sampled != (pop > max) || !sameBridges(set, want) {
							t.Fatalf("%s (%d nets) %v max=%d seed=%d: got %d faults (population %d, sampled %v), want %d (population %d, sampled %v)",
								name, c.NumNets(), kind, max, seed, len(set), gotPop, sampled, len(want), pop, pop > max)
						}
					}
				}
			}
		}
	}
}

// bridgeNetlist derives a small circuit from bytes: multi-input AND, NAND,
// OR, NOR and XOR gates and inverters reading recent nets (so several
// gates share consumers, and a gate may read one net on two pins), a few
// primary outputs, and every other unread net left dangling.
func bridgeNetlist(data []byte) *netlist.Circuit {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	c := netlist.New("bridges")
	for i := 2 + next()%4; i > 0; i-- {
		c.AddInput(fmt.Sprintf("i%d", c.NumNets()))
	}
	types := []netlist.GateType{netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Not}
	for pos < len(data) && c.NumNets() < 32 {
		op := next()
		gt := types[op%len(types)]
		arity := 1
		if gt != netlist.Not {
			arity = 2 + next()%3
		}
		fanin := make([]int, arity)
		for j := range fanin {
			fanin[j] = c.NumNets() - 1 - next()%min(c.NumNets(), 6)
		}
		g := c.AddGate(fmt.Sprintf("g%d", c.NumNets()), gt, fanin...)
		if op/len(types)%4 == 0 {
			c.MarkOutput(g)
		}
	}
	if last := c.NumNets() - 1; !c.IsOutput(last) {
		c.MarkOutput(last)
	}
	return c
}

// checkAgainstReference compares the population, the structural screen
// and the draw on one circuit with the reference implementations.
func checkAgainstReference(t *testing.T, c *netlist.Circuit, seed int64) {
	t.Helper()
	for _, kind := range []faults.BridgeKind{faults.WiredAND, faults.WiredOR} {
		want := refAllNFBFs(c, kind)
		if got := faults.AllNFBFs(c, kind); !sameBridges(got, want) {
			t.Fatalf("%v: AllNFBFs = %v, want %v\n%s", kind, got, want, c.BenchString())
		}
		for u := 0; u < c.NumNets(); u++ {
			for v := u + 1; v < c.NumNets(); v++ {
				b := faults.Bridging{U: u, V: v, Kind: kind}
				if got, want := faults.TriviallyUndetectable(c, b), refTriviallyUndetectable(c, b); got != want {
					t.Fatalf("TriviallyUndetectable(%s) = %v, want %v\n%s", b.Describe(c), got, want, c.BenchString())
				}
			}
		}
		for _, n := range []int{0, 1, len(want) / 2, len(want) - 1} {
			if n < 0 {
				continue
			}
			got := layout.SampleNFBFs(c, want, n, 0.3, seed)
			if ref := refSampleNFBFs(c, want, n, 0.3, seed); !sameBridges(got, ref) {
				t.Fatalf("%v: SampleNFBFs(n=%d, seed=%d) = %v, want %v\n%s", kind, n, seed, got, ref, c.BenchString())
			}
		}
	}
}

// TestNFBFsMatchReferenceOnRandomNetlists checks the screen's every rule
// against the reference on random small netlists, and that the corpus
// reaches each rule: pairs of dangling nets, pairs absorbed by shared
// consumers, and pairs whose first consumers read both nets yet are not
// trivial (so the first-consumer exit alone does not decide them).
func TestNFBFsMatchReferenceOnRandomNetlists(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var dangling, absorbed, pastFirst int
	for i := 0; i < 300; i++ {
		data := make([]byte, 8+rng.Intn(80))
		rng.Read(data)
		c := bridgeNetlist(data)
		checkAgainstReference(t, c, int64(i))
		fo := c.Fanout()
		readsNet := func(g, net int) bool {
			for _, f := range c.Gates[g].Fanin {
				if f == net {
					return true
				}
			}
			return false
		}
		for u := 0; u < c.NumNets(); u++ {
			for v := u + 1; v < c.NumNets(); v++ {
				if c.IsOutput(u) || c.IsOutput(v) {
					continue
				}
				b := faults.Bridging{U: u, V: v, Kind: faults.WiredAND}
				trivial := refTriviallyUndetectable(c, b)
				switch {
				case len(fo[u]) == 0 && len(fo[v]) == 0:
					dangling++
				case trivial:
					absorbed++
				case len(fo[u]) > 0 && len(fo[v]) > 0 && readsNet(fo[u][0], v) && readsNet(fo[v][0], u):
					pastFirst++
				}
			}
		}
	}
	t.Logf("AND pairs: %d dangling, %d absorbed, %d past the first-consumer exit", dangling, absorbed, pastFirst)
	if dangling == 0 || absorbed == 0 || pastFirst == 0 {
		t.Fatalf("corpus misses a screening rule: %d dangling, %d absorbed, %d past the first-consumer exit", dangling, absorbed, pastFirst)
	}
}

// FuzzNFBFs compares the bridging population, the structural screen and
// the layout-weighted draw on a netlist built from the fuzz bytes with
// the reference implementations.
func FuzzNFBFs(f *testing.F) {
	f.Add([]byte{1, 0, 2, 1, 0, 1, 3, 1, 0, 5, 0, 0, 1})
	f.Add([]byte{3, 2, 0, 1, 1, 2, 4, 0, 2, 3, 1, 2, 5, 9, 4, 1, 7})
	f.Add([]byte{0, 0, 2, 0, 1, 2, 2, 0, 1, 1, 2, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		seed := int64(0)
		for _, b := range data {
			seed = seed*31 + int64(b)
		}
		checkAgainstReference(t, bridgeNetlist(data), seed)
	})
}

// bridgingSink keeps the benchmarked sets alive.
var bridgingSink []faults.Bridging

// BenchmarkBridgingSet builds the AND and OR fault sets of a decomposed
// catalog circuit with the sample ceiling its heaviest caller uses: 6 on
// c499s (perfbench's catalog-small), 1000 on c1355s (cmd/figures).
func BenchmarkBridgingSet(b *testing.B) {
	for _, bc := range []struct {
		name string
		max  int
	}{{"c499s", 6}, {"c1355s", 1000}} {
		work := circuits.MustGet(bc.name).Decompose2()
		work.Fanout()
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, kind := range []faults.BridgeKind{faults.WiredAND, faults.WiredOR} {
					bridgingSink, _, _ = BridgingSet(work, kind, bc.max, 0.3, int64(i))
				}
			}
		})
	}
}
