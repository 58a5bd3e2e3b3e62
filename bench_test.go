package repro

// One benchmark per table and figure of the paper's evaluation section,
// plus the Difference-Propagation-versus-exhaustive-simulation baseline
// the paper argues from and micro-benchmarks of the substrates.
//
//	go test -bench=. -benchmem
//
// The figure benchmarks share a runner (studies are cached after their
// first computation, like cmd/figures), so a full sweep costs roughly one
// complete regeneration of the paper. BenchScale trims the bridging
// sample ceiling to keep that tractable; cmd/figures defaults to the
// paper-scale 1000.

import (
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/atpg"
	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/diagnose"
	"repro/internal/diffprop"
	"repro/internal/equiv"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/podem"
	"repro/internal/report"
	"repro/internal/scoap"
	"repro/internal/simulate"
)

var (
	runnerOnce sync.Once
	runner     *experiments.Runner
)

// benchRunner returns the shared experiment runner at bench scale.
func benchRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	runnerOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		cfg.MaxBFs = 300
		runner = experiments.NewRunner(cfg)
	})
	return runner
}

func benchFigure(b *testing.B, fn func() (report.Figure, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		fig, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkTable1_DifferenceIdentities regenerates and verifies Table 1:
// the ring-sum difference functions for every primitive gate class.
func BenchmarkTable1_DifferenceIdentities(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		t := r.Table1()
		if len(t.Rows) != 4 {
			b.Fatal("Table 1 must have 4 rows")
		}
		for _, row := range t.Rows {
			if row[2] == "FAIL" {
				b.Fatalf("identity %s failed", row[0])
			}
		}
	}
}

// BenchmarkFig1_StuckAtHistograms regenerates Figure 1: stuck-at
// detection probability histograms for c95s and the 74181 ALU.
func BenchmarkFig1_StuckAtHistograms(b *testing.B) {
	benchFigure(b, benchRunner(b).Fig1)
}

// BenchmarkFig2_StuckAtTrend regenerates Figure 2: mean stuck-at
// detectability (raw and PO-normalized) versus netlist size over the
// whole benchmark set.
func BenchmarkFig2_StuckAtTrend(b *testing.B) {
	benchFigure(b, benchRunner(b).Fig2)
}

// BenchmarkFig3_StuckAtPODistance regenerates Figure 3: mean stuck-at
// detectability versus maximum levels to a primary output on c1355s.
func BenchmarkFig3_StuckAtPODistance(b *testing.B) {
	benchFigure(b, benchRunner(b).Fig3)
}

// BenchmarkFig4_AdherenceHistogram regenerates Figure 4: the stuck-at
// adherence histogram of the 74181 ALU.
func BenchmarkFig4_AdherenceHistogram(b *testing.B) {
	benchFigure(b, benchRunner(b).Fig4)
}

// BenchmarkFig5_BridgingStuckAtProportions regenerates Figure 5: the
// proportions of AND and OR NFBFs with stuck-at behavior per circuit.
func BenchmarkFig5_BridgingStuckAtProportions(b *testing.B) {
	benchFigure(b, benchRunner(b).Fig5)
}

// BenchmarkFig6_BridgingHistograms regenerates Figure 6: bridging fault
// detection probability histograms on c95s.
func BenchmarkFig6_BridgingHistograms(b *testing.B) {
	benchFigure(b, benchRunner(b).Fig6)
}

// BenchmarkFig7_BridgingTrend regenerates Figure 7: mean bridging
// detectability trends versus netlist size.
func BenchmarkFig7_BridgingTrend(b *testing.B) {
	benchFigure(b, benchRunner(b).Fig7)
}

// BenchmarkFig8_BridgingPODistance regenerates Figure 8: mean bridging
// detectability versus maximum levels to a primary output on c1355s.
func BenchmarkFig8_BridgingPODistance(b *testing.B) {
	benchFigure(b, benchRunner(b).Fig8)
}

// --- Baseline comparison (§1, §3) ----------------------------------------
//
// The paper motivates Difference Propagation against exhaustive
// simulation. These two benchmarks measure the per-fault cost of each
// method on the same circuit and fault set (the 74181 ALU, 2^14 input
// space), making the comparison the paper only argues qualitatively.

func BenchmarkBaseline_DPPerFault(b *testing.B) {
	e, err := diffprop.New(circuits.MustGet("alu181"), nil)
	if err != nil {
		b.Fatal(err)
	}
	fs := faults.CheckpointStuckAts(e.Circuit)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := fs[i%len(fs)]
		if r := e.StuckAt(f); r.Detectability < 0 {
			b.Fatal("impossible")
		}
	}
}

func BenchmarkBaseline_ExhaustiveSimPerFault(b *testing.B) {
	c := circuits.MustGet("alu181").Decompose2()
	fs := faults.CheckpointStuckAts(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := fs[i%len(fs)]
		if d := simulate.ExhaustiveDetectabilityStuckAt(c, f); d < 0 {
			b.Fatal("impossible")
		}
	}
}

// --- Ablations of DESIGN.md design choices -------------------------------

// BenchmarkAblation_VariableOrderNatural quantifies the cost of the
// paper's benchmark-declaration variable order against the DFS heuristic
// and the committed table order on the order-sensitive priority
// controller.
func BenchmarkAblation_VariableOrderNatural(b *testing.B) {
	c := circuits.MustGet("c432s")
	work := c.Decompose2()
	for i := 0; i < b.N; i++ {
		e, err := diffprop.New(c, &diffprop.Options{Order: work.InputNames()})
		if err != nil {
			b.Fatal(err)
		}
		fs := faults.CheckpointStuckAts(e.Circuit)[:20]
		analysis.RunStuckAt(e, fs)
	}
}

// BenchmarkAblation_VariableOrderDFS is the DFS-ordered counterpart, the
// order New picks for a netlist outside the table.
func BenchmarkAblation_VariableOrderDFS(b *testing.B) {
	c := circuits.MustGet("c432s")
	order := diffprop.DFSOrder(c.Decompose2())
	for i := 0; i < b.N; i++ {
		e, err := diffprop.New(c, &diffprop.Options{Order: order})
		if err != nil {
			b.Fatal(err)
		}
		fs := faults.CheckpointStuckAts(e.Circuit)[:20]
		analysis.RunStuckAt(e, fs)
	}
}

// BenchmarkAblation_VariableOrderTable runs the committed table order
// (sifted offline from DFSOrder and kept for its campaign op count),
// which New picks for a catalog circuit when no order is given.
func BenchmarkAblation_VariableOrderTable(b *testing.B) {
	c := circuits.MustGet("c432s")
	for i := 0; i < b.N; i++ {
		e, err := diffprop.New(c, nil)
		if err != nil {
			b.Fatal(err)
		}
		fs := faults.CheckpointStuckAts(e.Circuit)[:20]
		analysis.RunStuckAt(e, fs)
	}
}

// BenchmarkAblation_SelectiveTrace measures a full bridging analysis on
// the deep c1908s, the workload where skipping difference-free gates
// matters most.
func BenchmarkAblation_SelectiveTrace(b *testing.B) {
	e, err := diffprop.New(circuits.MustGet("c1908s"), nil)
	if err != nil {
		b.Fatal(err)
	}
	set, _, _ := analysis.BridgingSet(e.Circuit, faults.WiredAND, 30, 0.3, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bf := set[i%len(set)]
		e.Bridging(bf)
	}
}

// --- Substrate micro-benchmarks ------------------------------------------

func BenchmarkBDD_BuildGoodFunctions(b *testing.B) {
	c := circuits.MustGet("c1908s")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := diffprop.New(c, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBDD_Apply(b *testing.B) {
	m := bdd.NewAnon(24)
	fs := make([]bdd.Ref, 24)
	for i := range fs {
		fs[i] = m.Var(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := m.And(fs[i%24], fs[(i+7)%24])
		y := m.Xor(x, fs[(i+13)%24])
		m.Or(x, y)
	}
}

func BenchmarkSimulate_ParallelPattern64(b *testing.B) {
	c := circuits.MustGet("c1908s")
	p := simulate.Random(len(c.Inputs), 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simulate.GoodValues(c, p)
	}
}

// --- Extension experiments (X5-X9) and added substrates -----------------

func benchTable(b *testing.B, fn func() (report.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkX5_DoubleFaultCoverage regenerates the Hughes–McCluskey style
// double stuck-at coverage table.
func BenchmarkX5_DoubleFaultCoverage(b *testing.B) {
	benchTable(b, benchRunner(b).X5)
}

// BenchmarkX6_GateSubstitutionCoverage regenerates the gate-substitution
// coverage table.
func BenchmarkX6_GateSubstitutionCoverage(b *testing.B) {
	benchTable(b, benchRunner(b).X6)
}

// BenchmarkX7_RedesignForTestability regenerates the
// re-minimization-of-c1355s experiment.
func BenchmarkX7_RedesignForTestability(b *testing.B) {
	benchTable(b, benchRunner(b).X7)
}

// BenchmarkX8_ScoapCorrelation regenerates the SCOAP-versus-exact table.
func BenchmarkX8_ScoapCorrelation(b *testing.B) {
	benchTable(b, benchRunner(b).X8)
}

// BenchmarkX9_RandomPatternPrediction regenerates the predicted-versus-
// simulated random coverage table.
func BenchmarkX9_RandomPatternPrediction(b *testing.B) {
	benchTable(b, benchRunner(b).X9)
}

func BenchmarkScoap_Compute(b *testing.B) {
	c := circuits.MustGet("c1908s")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scoap.Compute(c)
	}
}

func BenchmarkEquiv_C499VsC1355(b *testing.B) {
	a := circuits.MustGet("c499s")
	c := circuits.MustGet("c1355s")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := equiv.Check(a, c); !r.Equivalent {
			b.Fatal("equivalence lost")
		}
	}
}

func BenchmarkOptimize_C1355s(b *testing.B) {
	c := circuits.MustGet("c1355s")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if opt := c.Optimize(); opt.NumGates() >= c.NumGates() {
			b.Fatal("optimizer regressed")
		}
	}
}

func BenchmarkDiagnose_BuildDictionary(b *testing.B) {
	e, err := diffprop.New(circuits.MustGet("c95s"), nil)
	if err != nil {
		b.Fatal(err)
	}
	fs := faults.CheckpointStuckAts(e.Circuit)
	gen := atpg.GenerateStuckAt(e, fs, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := diagnose.Build(e, fs, gen.Vectors)
		if d.NumClasses() == 0 {
			b.Fatal("empty dictionary")
		}
	}
}

func BenchmarkATPG_GenerateAndCompact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := diffprop.New(circuits.MustGet("alu181"), nil)
		if err != nil {
			b.Fatal(err)
		}
		fs := faults.CheckpointStuckAts(e.Circuit)
		gen := atpg.GenerateStuckAt(e, fs, int64(i))
		if len(atpg.Compact(e, fs, gen.Vectors)) == 0 {
			b.Fatal("empty test set")
		}
	}
}

// BenchmarkBaseline_PODEMPerFault measures the conventional-ATPG
// baseline: one PODEM test per fault (versus DP's complete test set) on
// the same 74181 workload as the other Baseline benchmarks.
func BenchmarkBaseline_PODEMPerFault(b *testing.B) {
	c := circuits.MustGet("alu181").Decompose2()
	gen := podem.New(c)
	fs := faults.CheckpointStuckAts(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := fs[i%len(fs)]
		if r := gen.Generate(f); !r.Found && !r.Redundant {
			b.Fatal("incomplete PODEM result")
		}
	}
}

// BenchmarkBaseline_DeductivePerVector measures one deductive simulation
// pass (all faults at once) on the 74181.
func BenchmarkBaseline_DeductivePerVector(b *testing.B) {
	c := circuits.MustGet("alu181").Decompose2()
	fs := faults.CheckpointStuckAts(c)
	vec := make([]bool, len(c.Inputs))
	for i := range vec {
		vec[i] = i%2 == 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simulate.DeductiveStuckAt(c, fs, vec)
	}
}

// BenchmarkBDD_SiftC432Natural measures transfer-based sifting repairing
// the worst-case natural order of the priority controller's good
// functions.
func BenchmarkBDD_SiftC432Natural(b *testing.B) {
	c := circuits.MustGet("c432s")
	work := c.Decompose2()
	e, err := diffprop.New(c, &diffprop.Options{Order: work.InputNames()})
	if err != nil {
		b.Fatal(err)
	}
	// One output cone keeps the bench under a few seconds; the full
	// 7-output sift follows the same trajectory, only slower.
	roots := []bdd.Ref{e.Good(e.Circuit.Outputs[0])}
	before := e.Manager().TotalSize(roots...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, size := e.Manager().Sift(roots, 1)
		if size >= before {
			b.Fatalf("sifting failed to shrink: %d -> %d", before, size)
		}
	}
}

func BenchmarkFaults_EnumerateNFBFs(b *testing.B) {
	c := circuits.MustGet("c1355s")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if set := faults.AllNFBFs(c, faults.WiredAND); len(set) == 0 {
			b.Fatal("empty population")
		}
	}
}
