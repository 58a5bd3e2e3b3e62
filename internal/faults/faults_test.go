package faults

import (
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/netlist"
)

const c17Bench = `
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`

func mustC17(t testing.TB) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseBenchString("c17", c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCheckpointsC17(t *testing.T) {
	c := mustC17(t)
	sites := Checkpoints(c)
	// 5 primary inputs + 3 stems (3, 11, 16) x 2 branches each = 11 sites.
	if len(sites) != 11 {
		t.Fatalf("c17 has %d checkpoint sites, want 11", len(sites))
	}
	nPI, nBranch := 0, 0
	for _, s := range sites {
		if s.IsBranch() {
			nBranch++
			if !c.IsStem(s.Net) {
				t.Fatalf("branch site on non-stem %s", c.NetName(s.Net))
			}
			if c.Gates[s.Gate].Fanin[s.Pin] != s.Net {
				t.Fatalf("branch pin does not connect to net: %v", s)
			}
		} else {
			nPI++
			if !c.IsInput(s.Net) {
				t.Fatalf("net site on non-PI %s", c.NetName(s.Net))
			}
		}
	}
	if nPI != 5 || nBranch != 6 {
		t.Fatalf("site split %d/%d, want 5/6", nPI, nBranch)
	}
}

func TestCheckpointStuckAtsCollapsing(t *testing.T) {
	c := mustC17(t)
	fs := CheckpointStuckAts(c)
	// 22 uncollapsed checkpoint faults; equivalence at the NAND inputs
	// removes one SA0 per NAND gate that receives two checkpoint lines.
	// Gates 10, 11, 16, 19 each receive two checkpoint lines (a PI with
	// single fan-out counts via its consumer), so 4 SA0 faults collapse
	// away: 22 - 4 = 18.
	if len(fs) != 18 {
		t.Fatalf("c17 collapsed checkpoint fault count = %d, want 18", len(fs))
	}
	// No gate may retain two equivalent controlling faults.
	type key struct {
		gate  int
		stuck bool
	}
	seen := map[key]int{}
	fo := c.Fanout()
	for _, f := range fs {
		gate := f.Gate
		if gate < 0 && len(fo[f.Net]) == 1 {
			gate = fo[f.Net][0]
		}
		if gate < 0 {
			continue
		}
		if c.Gates[gate].Type == netlist.Nand && !f.Stuck {
			seen[key{gate, f.Stuck}]++
		}
	}
	for k, n := range seen {
		if n > 1 {
			t.Fatalf("gate %s keeps %d equivalent SA0 faults", c.NetName(k.gate), n)
		}
	}
}

func TestCheckpointStuckAtsBothPolarities(t *testing.T) {
	c := mustC17(t)
	fs := CheckpointStuckAts(c)
	sa0, sa1 := 0, 0
	for _, f := range fs {
		if f.Stuck {
			sa1++
		} else {
			sa0++
		}
	}
	// Collapsing only removes SA0 faults here (all gates are NANDs).
	if sa1 != 11 || sa0 != 7 {
		t.Fatalf("polarity split %d/%d, want 7 SA0 / 11 SA1", sa0, sa1)
	}
}

func TestAllStuckAts(t *testing.T) {
	c := mustC17(t)
	fs := AllStuckAts(c)
	if len(fs) != 2*c.NumNets() {
		t.Fatalf("AllStuckAts = %d, want %d", len(fs), 2*c.NumNets())
	}
}

func TestStuckAtDescribe(t *testing.T) {
	c := mustC17(t)
	f := StuckAt{Net: c.NetByName("11"), Gate: c.NetByName("16"), Pin: 1, Stuck: false}
	if got := f.Describe(c); got != "11->16.1/SA0" {
		t.Fatalf("describe = %q", got)
	}
	n := StuckAt{Net: c.NetByName("3"), Gate: -1, Pin: -1, Stuck: true}
	if got := n.Describe(c); got != "3/SA1" {
		t.Fatalf("describe = %q", got)
	}
	if !strings.Contains(n.String(), "SA1") {
		t.Fatal("String must mention polarity")
	}
}

func TestIsFeedback(t *testing.T) {
	c := mustC17(t)
	n := func(s string) int { return c.NetByName(s) }
	if !IsFeedback(c, n("11"), n("16")) || !IsFeedback(c, n("16"), n("11")) {
		t.Fatal("11-16 must be feedback")
	}
	if !IsFeedback(c, n("3"), n("22")) {
		t.Fatal("3-22 must be feedback")
	}
	if IsFeedback(c, n("10"), n("19")) || IsFeedback(c, n("1"), n("7")) {
		t.Fatal("independent nets flagged as feedback")
	}
}

func TestTriviallyUndetectable(t *testing.T) {
	// a and b feed only the same AND gate: wired-AND bridge is invisible,
	// wired-OR is not.
	c := netlist.New("triv")
	a := c.AddInput("a")
	b := c.AddInput("b")
	x := c.AddGate("x", netlist.And, a, b)
	c.MarkOutput(x)
	band := Bridging{U: a, V: b, Kind: WiredAND}
	bor := Bridging{U: a, V: b, Kind: WiredOR}
	if !TriviallyUndetectable(c, band) {
		t.Fatal("AND bridge between AND-gate inputs must be trivially undetectable")
	}
	if TriviallyUndetectable(c, bor) {
		t.Fatal("OR bridge between AND-gate inputs is detectable")
	}

	// Same structure with NAND: still undetectable for wired-AND.
	c2 := netlist.New("triv2")
	a2 := c2.AddInput("a")
	b2 := c2.AddInput("b")
	x2 := c2.AddGate("x", netlist.Nand, a2, b2)
	c2.MarkOutput(x2)
	if !TriviallyUndetectable(c2, Bridging{U: a2, V: b2, Kind: WiredAND}) {
		t.Fatal("AND bridge between NAND-gate inputs must be trivially undetectable")
	}

	// If one net has another consumer, the bridge is potentially
	// detectable.
	c3 := netlist.New("triv3")
	a3 := c3.AddInput("a")
	b3 := c3.AddInput("b")
	x3 := c3.AddGate("x", netlist.And, a3, b3)
	y3 := c3.AddGate("y", netlist.Not, a3)
	c3.MarkOutput(x3)
	c3.MarkOutput(y3)
	if TriviallyUndetectable(c3, Bridging{U: a3, V: b3, Kind: WiredAND}) {
		t.Fatal("extra consumer makes the bridge potentially detectable")
	}

	// A net observed directly at a PO is never screened.
	c4 := netlist.New("triv4")
	a4 := c4.AddInput("a")
	b4 := c4.AddInput("b")
	x4 := c4.AddGate("x", netlist.And, a4, b4)
	c4.MarkOutput(x4)
	c4.MarkOutput(a4)
	if TriviallyUndetectable(c4, Bridging{U: a4, V: b4, Kind: WiredAND}) {
		t.Fatal("PO nets must never be screened")
	}
}

func TestAllNFBFsScreening(t *testing.T) {
	c := mustC17(t)
	for _, kind := range []BridgeKind{WiredAND, WiredOR} {
		bs := AllNFBFs(c, kind)
		if len(bs) == 0 {
			t.Fatalf("c17 must have %v faults", kind)
		}
		for _, b := range bs {
			if b.U >= b.V {
				t.Fatalf("unordered pair %v", b)
			}
			if IsFeedback(c, b.U, b.V) {
				t.Fatalf("feedback pair %v survived screening", b.Describe(c))
			}
			if TriviallyUndetectable(c, b) {
				t.Fatalf("trivially undetectable pair %v survived", b.Describe(c))
			}
			if b.Kind != kind {
				t.Fatal("kind mislabeled")
			}
		}
	}
}

func TestAllNFBFsCountsConsistent(t *testing.T) {
	c := mustC17(t)
	n := c.NumNets()
	totalPairs := n * (n - 1) / 2
	fb := CountFeedbackPairs(c)
	band := len(AllNFBFs(c, WiredAND))
	bor := len(AllNFBFs(c, WiredOR))
	if band > totalPairs-fb || bor > totalPairs-fb {
		t.Fatalf("screened sets exceed non-feedback population: %d/%d vs %d", band, bor, totalPairs-fb)
	}
	// c17 is all-NAND: some AND bridges are trivially undetectable
	// (two inputs of the same NAND with no other consumers), while no OR
	// bridge is screened that way, so the OR set is at least as large.
	if bor < band {
		t.Fatalf("OR set (%d) should be >= AND set (%d) in an all-NAND circuit", bor, band)
	}
}

// TestCountFeedbackPairsMatchesPairwise: the popcount over reachability
// rows equals a pairwise test of every net pair against netlist's own
// fan-out cones, on every catalog circuit, plain and decomposed.
func TestCountFeedbackPairsMatchesPairwise(t *testing.T) {
	for _, name := range circuits.Names() {
		plain := circuits.MustGet(name)
		for _, c := range []*netlist.Circuit{plain, plain.Decompose2()} {
			n := c.NumNets()
			cones := make([][]bool, n)
			for u := range cones {
				cones[u] = c.FanoutCone(u)
			}
			want := 0
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if cones[u][v] || cones[v][u] {
						want++
					}
				}
			}
			if got := CountFeedbackPairs(c); got != want {
				t.Errorf("%s (%d nets): CountFeedbackPairs = %d, pairwise count %d", name, n, got, want)
			}
		}
	}
}

func TestBridgingDescribe(t *testing.T) {
	c := mustC17(t)
	b := Bridging{U: c.NetByName("10"), V: c.NetByName("19"), Kind: WiredAND}
	if got := b.Describe(c); got != "bridge(10 & 19)" {
		t.Fatalf("describe = %q", got)
	}
	b.Kind = WiredOR
	if got := b.Describe(c); got != "bridge(10 | 19)" {
		t.Fatalf("describe = %q", got)
	}
	if WiredAND.String() != "AND NFBF" || WiredOR.String() != "OR NFBF" {
		t.Fatal("kind strings wrong")
	}
}
