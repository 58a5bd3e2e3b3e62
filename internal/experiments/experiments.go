// Package experiments reproduces, exhibit by exhibit, the evaluation
// section of the paper: Table 1 and Figures 1-8, plus the quantified
// versions of the section 4 prose claims (X1-X4). Each runner returns
// renderable report structures; cmd/figures prints them and bench_test.go
// regenerates them under `go test -bench`.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/analysis"
	"repro/internal/atpg"
	"repro/internal/circuits"
	"repro/internal/diffprop"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/report"
	"repro/internal/scoap"
	"repro/internal/simulate"
)

// Config scopes an experiment run.
type Config struct {
	// Circuits lists the catalog names for the cross-circuit trend
	// figures (2, 5, 7) and tables; default is the whole catalog in size
	// order, matching the paper.
	Circuits []string
	// MaxBFs caps each bridging fault set; the population is used whole
	// when it is smaller (paper §2.2). The paper used ~1000.
	MaxBFs int
	// Theta is the exponential distance parameter of the layout-weighted
	// sample.
	Theta float64
	// Seed drives all sampling deterministically.
	Seed int64
	// Bins is the histogram resolution of Figures 1, 4 and 6.
	Bins int
	// HistCircuits names the circuits of Figure 1 (the paper shows C95 and
	// the 74LS181).
	HistCircuits []string
	// AdherenceCircuit names the circuit of Figure 4 (the paper's 74LS181).
	AdherenceCircuit string
	// BFHistCircuit names the circuit of Figure 6 (the paper's C95).
	BFHistCircuit string
	// DistanceCircuit names the circuit of Figures 3 and 8 (the paper's
	// C1355).
	DistanceCircuit string
	// Campaign is the base configuration of every fault-analysis
	// campaign the runner launches: parallelism, dispatch order,
	// per-fault budgets and recovery ladder, heap ceiling, calibration and
	// observer (see analysis.CampaignConfig). All campaigns of a run
	// share its one Obs, so a flight dump covers the whole
	// figure-generation sequence. The runner sets Name and Progress per
	// campaign and Resume for supervised ones; Checkpoint must stay nil
	// (every campaign would append to it).
	Campaign analysis.CampaignConfig
	// Progress, when non-nil, observes every fault-analysis campaign the
	// runner launches: the circuit being studied plus done/total fault
	// counts. Callbacks arrive serially per campaign. Used by cmd/figures
	// -v to stream progress to stderr.
	Progress func(circuit string, done, total int)
	// Shards, when positive, runs every catalog-circuit study campaign
	// under the crash-tolerant process supervisor instead of in-process:
	// the fault set is partitioned into Shards lease-tracked shards, each
	// analyzed by a supervised, restartable diffprop worker subprocess
	// (see internal/supervise), and the merged — bit-identical — records
	// are resumed to build the study without recomputation. Campaigns
	// over derived netlists (X7's re-minimized circuit) stay in-process.
	Shards int
	// WorkerBinary is the diffprop executable supervised campaigns exec
	// (it re-executes itself as the shard workers). Required when
	// Shards > 0.
	WorkerBinary string
	// ShardDir is the directory for supervised campaigns' merged and
	// per-shard checkpoints. Required when Shards > 0; rerunning over
	// the same directory resumes the shard checkpoints.
	ShardDir string
}

// DefaultConfig reproduces the paper's choices.
func DefaultConfig() Config {
	return Config{
		Circuits:         circuits.Names(),
		MaxBFs:           1000,
		Theta:            0.3,
		Seed:             1990,
		Bins:             25,
		HistCircuits:     []string{"c95s", "alu181"},
		AdherenceCircuit: "alu181",
		BFHistCircuit:    "c95s",
		DistanceCircuit:  "c1355s",
	}
}

// QuickConfig is a cheap configuration for tests and smoke runs: small
// circuits only and small fault samples.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.Circuits = []string{"c17", "fadd", "c95s", "alu181"}
	cfg.MaxBFs = 60
	cfg.HistCircuits = []string{"c95s", "alu181"}
	cfg.AdherenceCircuit = "alu181"
	cfg.BFHistCircuit = "c95s"
	cfg.DistanceCircuit = "c95s"
	return cfg
}

type bfKey struct {
	circuit string
	kind    faults.BridgeKind
}

// Runner caches engines and studies so figures sharing inputs do not
// recompute them.
type Runner struct {
	cfg      Config
	engines  map[string]*diffprop.Engine
	sa       map[string]*analysis.StuckAtStudy
	bf       map[bfKey]*analysis.BridgingStudy
	testSets map[string][][]bool
}

// NewRunner builds a runner over the configuration.
func NewRunner(cfg Config) *Runner {
	return &Runner{
		cfg:      cfg,
		engines:  map[string]*diffprop.Engine{},
		sa:       map[string]*analysis.StuckAtStudy{},
		bf:       map[bfKey]*analysis.BridgingStudy{},
		testSets: map[string][][]bool{},
	}
}

// TestSet returns (building and caching) a compacted complete stuck-at
// test set for the circuit's collapsed checkpoint faults.
func (r *Runner) TestSet(name string) ([][]bool, error) {
	if v, ok := r.testSets[name]; ok {
		return v, nil
	}
	e, err := r.Engine(name)
	if err != nil {
		return nil, err
	}
	fs := faults.CheckpointStuckAts(e.Circuit)
	gen := atpg.GenerateStuckAt(e, fs, r.cfg.Seed)
	vectors := atpg.Compact(e, fs, gen.Vectors)
	r.testSets[name] = vectors
	return vectors, nil
}

// Config returns the runner's configuration.
func (r *Runner) Config() Config { return r.cfg }

// campaignConfig adapts the runner's base campaign configuration and
// progress callback to one named campaign.
func (r *Runner) campaignConfig(label string) analysis.CampaignConfig {
	cfg := r.cfg.Campaign
	cfg.Name = label
	if p := r.cfg.Progress; p != nil {
		cfg.Progress = func(done, total int) { p(label, done, total) }
	}
	return cfg
}

// Engine returns (building and caching on first use) the DP engine for a
// circuit.
func (r *Runner) Engine(name string) (*diffprop.Engine, error) {
	if e, ok := r.engines[name]; ok {
		return e, nil
	}
	c, err := circuits.Get(name)
	if err != nil {
		return nil, err
	}
	e, err := diffprop.New(c, nil)
	if err != nil {
		return nil, err
	}
	r.engines[name] = e
	return e, nil
}

// StuckAtStudy returns the cached collapsed-checkpoint stuck-at study.
func (r *Runner) StuckAtStudy(name string) (*analysis.StuckAtStudy, error) {
	if s, ok := r.sa[name]; ok {
		return s, nil
	}
	e, err := r.Engine(name)
	if err != nil {
		return nil, err
	}
	c, err := circuits.Get(name)
	if err != nil {
		return nil, err
	}
	fs := faults.CheckpointStuckAts(e.Circuit)
	cfg := r.campaignConfig(name + " stuck-at")
	if r.cfg.Shards > 0 {
		recs, err := r.shardedRecords(name, "sa", len(fs))
		if err != nil {
			return nil, err
		}
		cfg.Resume = recs
	}
	s, err := analysis.RunStuckAtCampaign(c, nil, fs, cfg)
	if err != nil {
		return nil, err
	}
	r.sa[name] = &s
	return &s, nil
}

// BridgingStudy returns the cached NFBF study of the given kind.
func (r *Runner) BridgingStudy(name string, kind faults.BridgeKind) (*analysis.BridgingStudy, error) {
	k := bfKey{name, kind}
	if s, ok := r.bf[k]; ok {
		return s, nil
	}
	e, err := r.Engine(name)
	if err != nil {
		return nil, err
	}
	c, err := circuits.Get(name)
	if err != nil {
		return nil, err
	}
	set, pop, sampled := analysis.BridgingSet(e.Circuit, kind, r.cfg.MaxBFs, r.cfg.Theta, r.cfg.Seed)
	cfg := r.campaignConfig(fmt.Sprintf("%s %v", name, kind))
	if r.cfg.Shards > 0 {
		model := "and"
		if kind == faults.WiredOR {
			model = "or"
		}
		recs, err := r.shardedRecords(name, model, len(set))
		if err != nil {
			return nil, err
		}
		cfg.Resume = recs
	}
	s, err := analysis.RunBridgingCampaign(c, nil, set, kind, pop, sampled, cfg)
	if err != nil {
		return nil, err
	}
	r.bf[k] = &s
	return &s, nil
}

// Table1 reports the gate output difference functions (the paper's
// Table 1) and verifies each identity over randomized functions.
func (r *Runner) Table1() report.Table {
	const trials = 4096
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	verify := func(check func(fa, fb, da, db uint64) bool) string {
		for i := 0; i < trials; i++ {
			if !check(rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()) {
				return "FAIL"
			}
		}
		return fmt.Sprintf("verified on %d random 64-point function pairs", trials)
	}
	rows := [][]string{
		{"AND / NAND", "ΔC = fA·ΔB ⊕ fB·ΔA ⊕ ΔA·ΔB", verify(func(fa, fb, da, db uint64) bool {
			return (fa&fb)^((fa^da)&(fb^db)) == (fa&db)^(fb&da)^(da&db)
		})},
		{"OR / NOR", "ΔC = ¬fA·ΔB ⊕ ¬fB·ΔA ⊕ ΔA·ΔB", verify(func(fa, fb, da, db uint64) bool {
			return (fa|fb)^((fa^da)|(fb^db)) == (^fa&db)^(^fb&da)^(da&db)
		})},
		{"XOR / XNOR", "ΔC = ΔA ⊕ ΔB", verify(func(fa, fb, da, db uint64) bool {
			return (fa^fb)^((fa^da)^(fb^db)) == da^db
		})},
		{"NOT / BUFF", "ΔC = ΔA", verify(func(fa, fb, da, db uint64) bool {
			return ^fa^^(fa^da) == da
		})},
	}
	return report.Table{
		Title:   "Table 1: output difference functions in terms of input good and difference functions",
		Columns: []string{"gate", "difference function", "status"},
		Rows:    rows,
	}
}

// Fig1 reproduces Figure 1: stuck-at detection probability histograms.
func (r *Runner) Fig1() (report.Figure, error) {
	fig := report.Figure{
		ID:     "fig1",
		Title:  "stuck-at fault detection probability histograms",
		XLabel: "detection probability",
		YLabel: "fault proportion",
	}
	for _, name := range r.cfg.HistCircuits {
		s, err := r.StuckAtStudy(name)
		if err != nil {
			return fig, err
		}
		h := analysis.Histogram(s.Detectabilities(), r.cfg.Bins)
		fig.Series = append(fig.Series,
			report.HistogramSeries(fmt.Sprintf("%s (%d faults)", name, len(s.Records)), h))
	}
	fig.Note = "collapsed checkpoint stuck-at faults, exact detectabilities via Difference Propagation"
	return fig, nil
}

// Fig2 reproduces Figure 2: mean stuck-at detectability (raw and
// PO-normalized) versus netlist size.
func (r *Runner) Fig2() (report.Figure, error) {
	fig := report.Figure{
		ID:     "fig2",
		Title:  "trends of mean stuck-at detection probabilities vs netlist size",
		XLabel: "netlist size (gates)",
		YLabel: "mean detectability of detectable faults",
	}
	var mean, norm report.Series
	mean.Name = "mean detectability"
	norm.Name = "mean detectability / #POs"
	note := "circuits:"
	for _, name := range r.cfg.Circuits {
		s, err := r.StuckAtStudy(name)
		if err != nil {
			return fig, err
		}
		m := s.MeanDetectable()
		mean.X = append(mean.X, float64(s.NetlistSize))
		mean.Y = append(mean.Y, m)
		norm.X = append(norm.X, float64(s.NetlistSize))
		norm.Y = append(norm.Y, m/float64(s.NumPOs))
		note += fmt.Sprintf(" %s(%d)", name, s.NetlistSize)
	}
	fig.Series = []report.Series{mean, norm}
	sortSeriesByX(fig.Series)
	fig.Note = note
	return fig, nil
}

// Fig3 reproduces Figure 3: mean stuck-at detectability versus maximum
// levels to a primary output.
func (r *Runner) Fig3() (report.Figure, error) {
	name := r.cfg.DistanceCircuit
	s, err := r.StuckAtStudy(name)
	if err != nil {
		return report.Figure{}, err
	}
	fig := report.Figure{
		ID:     "fig3",
		Title:  fmt.Sprintf("mean stuck-at detectability vs maximum distance to POs (%s)", name),
		XLabel: "maximum levels to PO",
		YLabel: "mean detection probability",
		Note:   fmt.Sprintf("%d collapsed checkpoint faults", len(s.Records)),
	}
	curve := s.CurveByMaxLevelsToPO()
	var sr report.Series
	sr.Name = name
	for _, p := range curve {
		sr.X = append(sr.X, float64(p.Distance))
		sr.Y = append(sr.Y, p.Mean)
	}
	fig.Series = []report.Series{sr}
	return fig, nil
}

// Fig4 reproduces Figure 4: the stuck-at adherence histogram.
func (r *Runner) Fig4() (report.Figure, error) {
	name := r.cfg.AdherenceCircuit
	s, err := r.StuckAtStudy(name)
	if err != nil {
		return report.Figure{}, err
	}
	h := analysis.Histogram(s.Adherences(), r.cfg.Bins)
	fig := report.Figure{
		ID:     "fig4",
		Title:  fmt.Sprintf("stuck-at fault adherence histogram (%s)", name),
		XLabel: "adherence (detectability / excitation bound)",
		YLabel: "fault proportion",
		Note:   fmt.Sprintf("%d excitable faults; PO faults adhere at exactly 1.0", len(s.Adherences())),
		Series: []report.Series{report.HistogramSeries(name+" stuck-at", h)},
	}
	// §4.2: "The NFBF adherence histograms differed little from the
	// stuck-at adherence histograms except that the spread of values was
	// usually greater." Include the same circuit's bridging series for the
	// comparison.
	ba, err := r.BridgingStudy(name, faults.WiredAND)
	if err != nil {
		return fig, err
	}
	bh := analysis.Histogram(ba.Adherences(), r.cfg.Bins)
	fig.Series = append(fig.Series,
		report.HistogramSeries(fmt.Sprintf("%s AND-NFBF", name), bh))
	return fig, nil
}

// Fig5 reproduces Figure 5: proportions of AND and OR NFBFs that exhibit
// stuck-at behavior, per circuit.
func (r *Runner) Fig5() (report.Figure, error) {
	fig := report.Figure{
		ID:     "fig5",
		Title:  "proportions of AND and OR NFBFs that exhibit stuck-at behavior",
		XLabel: "netlist size (gates)",
		YLabel: "proportion of NFBFs equivalent to double stuck-at faults",
	}
	var andS, orS report.Series
	andS.Name = "AND NFBFs"
	orS.Name = "OR NFBFs"
	note := "circuits:"
	for _, name := range r.cfg.Circuits {
		sa, err := r.BridgingStudy(name, faults.WiredAND)
		if err != nil {
			return fig, err
		}
		so, err := r.BridgingStudy(name, faults.WiredOR)
		if err != nil {
			return fig, err
		}
		andS.X = append(andS.X, float64(sa.NetlistSize))
		andS.Y = append(andS.Y, sa.StuckAtProportion())
		orS.X = append(orS.X, float64(so.NetlistSize))
		orS.Y = append(orS.Y, so.StuckAtProportion())
		note += fmt.Sprintf(" %s(AND %d/%d, OR %d/%d)",
			name, len(sa.Records), sa.Population, len(so.Records), so.Population)
	}
	fig.Series = []report.Series{andS, orS}
	sortSeriesByX(fig.Series)
	fig.Note = note
	return fig, nil
}

// Fig6 reproduces Figure 6: bridging fault detection probability
// histograms for both wired behaviors.
func (r *Runner) Fig6() (report.Figure, error) {
	name := r.cfg.BFHistCircuit
	fig := report.Figure{
		ID:     "fig6",
		Title:  fmt.Sprintf("bridging fault detection probability histograms (%s)", name),
		XLabel: "detection probability",
		YLabel: "fault proportion",
	}
	for _, kind := range []faults.BridgeKind{faults.WiredAND, faults.WiredOR} {
		s, err := r.BridgingStudy(name, kind)
		if err != nil {
			return fig, err
		}
		h := analysis.Histogram(s.Detectabilities(), r.cfg.Bins)
		fig.Series = append(fig.Series,
			report.HistogramSeries(fmt.Sprintf("%v (%d faults)", kind, len(s.Records)), h))
	}
	return fig, nil
}

// Fig7 reproduces Figure 7: mean bridging detectability trends versus
// netlist size (AND and OR merged, as the paper found them nearly equal,
// with the split series included for inspection).
func (r *Runner) Fig7() (report.Figure, error) {
	fig := report.Figure{
		ID:     "fig7",
		Title:  "trends of mean bridging fault detection probabilities vs netlist size",
		XLabel: "netlist size (gates)",
		YLabel: "mean detectability of detectable faults",
	}
	series := map[string]*report.Series{
		"mean detectability (AND+OR)":   {Name: "mean detectability (AND+OR)"},
		"mean detectability / #POs":     {Name: "mean detectability / #POs"},
		"mean detectability (AND only)": {Name: "mean detectability (AND only)"},
		"mean detectability (OR only)":  {Name: "mean detectability (OR only)"},
	}
	for _, name := range r.cfg.Circuits {
		sa, err := r.BridgingStudy(name, faults.WiredAND)
		if err != nil {
			return fig, err
		}
		so, err := r.BridgingStudy(name, faults.WiredOR)
		if err != nil {
			return fig, err
		}
		merged := append(append([]float64{}, sa.Detectabilities()...), so.Detectabilities()...)
		sum, n := 0.0, 0
		for _, d := range merged {
			if d > 0 {
				sum += d
				n++
			}
		}
		m := 0.0
		if n > 0 {
			m = sum / float64(n)
		}
		x := float64(sa.NetlistSize)
		add := func(key string, y float64) {
			s := series[key]
			s.X = append(s.X, x)
			s.Y = append(s.Y, y)
		}
		add("mean detectability (AND+OR)", m)
		add("mean detectability / #POs", m/float64(sa.NumPOs))
		add("mean detectability (AND only)", sa.MeanDetectable())
		add("mean detectability (OR only)", so.MeanDetectable())
	}
	for _, key := range []string{
		"mean detectability (AND+OR)", "mean detectability / #POs",
		"mean detectability (AND only)", "mean detectability (OR only)",
	} {
		fig.Series = append(fig.Series, *series[key])
	}
	sortSeriesByX(fig.Series)
	return fig, nil
}

// Fig8 reproduces Figure 8: mean bridging detectability versus maximum
// levels to a primary output.
func (r *Runner) Fig8() (report.Figure, error) {
	name := r.cfg.DistanceCircuit
	fig := report.Figure{
		ID:     "fig8",
		Title:  fmt.Sprintf("mean bridging detectability vs maximum distance to POs (%s)", name),
		XLabel: "maximum levels to PO",
		YLabel: "mean detection probability",
	}
	for _, kind := range []faults.BridgeKind{faults.WiredAND, faults.WiredOR} {
		s, err := r.BridgingStudy(name, kind)
		if err != nil {
			return fig, err
		}
		var sr report.Series
		sr.Name = kind.String()
		for _, p := range s.CurveByMaxLevelsToPO() {
			sr.X = append(sr.X, float64(p.Distance))
			sr.Y = append(sr.Y, p.Mean)
		}
		fig.Series = append(fig.Series, sr)
	}
	return fig, nil
}

// X1 quantifies the §4.1 claim that detectability correlates more with
// observability (PO distance) than controllability (PI distance).
func (r *Runner) X1() (report.Table, error) {
	t := report.Table{
		Title:   "X1: correlation of detectability with PO distance vs PI distance",
		Columns: []string{"circuit", "corr(detect, PO distance)", "corr(detect, PI distance)", "|PO| > |PI|"},
	}
	for _, name := range r.cfg.Circuits {
		s, err := r.StuckAtStudy(name)
		if err != nil {
			return t, err
		}
		po, pi := s.DetectabilityVsDistanceCorrelations()
		stronger := "yes"
		if abs(po) <= abs(pi) {
			stronger = "no"
		}
		t.Rows = append(t.Rows, []string{name, fmt.Sprintf("%+.4f", po), fmt.Sprintf("%+.4f", pi), stronger})
	}
	return t, nil
}

// X2 quantifies the §4.1 claim that the POs fed by a fault site and the
// POs at which the fault is observable are almost always the same.
func (r *Runner) X2() (report.Table, error) {
	t := report.Table{
		Title:   "X2: POs fed by the fault site vs POs where the fault is observable",
		Columns: []string{"circuit", "faults", "observed == fed", "rate"},
	}
	for _, name := range r.cfg.Circuits {
		s, err := r.StuckAtStudy(name)
		if err != nil {
			return t, err
		}
		det := 0
		eq := 0
		for _, rec := range s.Records {
			if !rec.Detectable() {
				continue
			}
			det++
			if rec.ObservedPOs == rec.POsFed {
				eq++
			}
		}
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprintf("%d", det), fmt.Sprintf("%d", eq),
			fmt.Sprintf("%.3f", s.ObservedEqualsFedRate()),
		})
	}
	return t, nil
}

// X3 runs the Millman–McCluskey style experiment: a compacted complete
// stuck-at test set is fault-simulated against the NFBF sets.
func (r *Runner) X3() (report.Table, error) {
	t := report.Table{
		Title:   "X3: bridging fault coverage of complete stuck-at test sets (Millman–McCluskey)",
		Columns: []string{"circuit", "vectors", "SA coverage", "AND-NFBF coverage", "OR-NFBF coverage"},
	}
	for _, name := range r.cfg.Circuits {
		e, err := r.Engine(name)
		if err != nil {
			return t, err
		}
		vectors, err := r.TestSet(name)
		if err != nil {
			return t, err
		}
		fs := faults.CheckpointStuckAts(e.Circuit)
		andSet, _, _ := analysis.BridgingSet(e.Circuit, faults.WiredAND, r.cfg.MaxBFs, r.cfg.Theta, r.cfg.Seed)
		orSet, _, _ := analysis.BridgingSet(e.Circuit, faults.WiredOR, r.cfg.MaxBFs, r.cfg.Theta, r.cfg.Seed)
		p := simulate.FromVectors(len(e.Circuit.Inputs), vectors)
		saCov := simulate.CoverageStuckAt(e.Circuit, fs, p).Coverage()
		andCov := simulate.CoverageBridging(e.Circuit, andSet, p).Coverage()
		orCov := simulate.CoverageBridging(e.Circuit, orSet, p).Coverage()
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprintf("%d", len(vectors)),
			fmt.Sprintf("%.3f", saCov), fmt.Sprintf("%.3f", andCov), fmt.Sprintf("%.3f", orCov),
		})
	}
	return t, nil
}

// X4 reports redundancy identification: checkpoint faults with provably
// empty test sets, cross-checked exhaustively on small circuits.
func (r *Runner) X4() (report.Table, error) {
	t := report.Table{
		Title:   "X4: redundant (untestable) checkpoint faults proven by empty complete test sets",
		Columns: []string{"circuit", "faults", "redundant", "cross-check"},
	}
	for _, name := range r.cfg.Circuits {
		s, err := r.StuckAtStudy(name)
		if err != nil {
			return t, err
		}
		e, err := r.Engine(name)
		if err != nil {
			return t, err
		}
		var redundant []faults.StuckAt
		for _, rec := range s.Records {
			if !rec.Detectable() {
				redundant = append(redundant, rec.Fault)
			}
		}
		check := "skipped (too many inputs)"
		if len(e.Circuit.Inputs) <= 16 {
			ok := true
			for _, f := range redundant {
				if simulate.ExhaustiveDetectabilityStuckAt(e.Circuit, f) != 0 {
					ok = false
				}
			}
			if ok {
				check = "exhaustive simulation agrees"
			} else {
				check = "MISMATCH"
			}
		}
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprintf("%d", len(s.Records)), fmt.Sprintf("%d", len(redundant)), check,
		})
	}
	return t, nil
}

// X5 measures double stuck-at fault coverage of the single stuck-at test
// sets, the question of Hughes & McCluskey (the paper's ref [2]):
// complete single-fault test sets detect nearly all multiple faults.
func (r *Runner) X5() (report.Table, error) {
	t := report.Table{
		Title:   "X5: double stuck-at fault coverage of complete single stuck-at test sets (Hughes-McCluskey, ref [2])",
		Columns: []string{"circuit", "vectors", "double faults", "detected", "coverage"},
	}
	for _, name := range r.cfg.Circuits {
		e, err := r.Engine(name)
		if err != nil {
			return t, err
		}
		vectors, err := r.TestSet(name)
		if err != nil {
			return t, err
		}
		pool := faults.CheckpointStuckAts(e.Circuit)
		rng := rand.New(rand.NewSource(r.cfg.Seed + 5))
		nPairs := r.cfg.MaxBFs
		if max := len(pool) * (len(pool) - 1) / 2; nPairs > max {
			nPairs = max
		}
		seen := map[[2]int]bool{}
		var doubles [][]faults.StuckAt
		for len(doubles) < nPairs {
			i, j := rng.Intn(len(pool)), rng.Intn(len(pool))
			if i == j {
				continue
			}
			if i > j {
				i, j = j, i
			}
			if seen[[2]int{i, j}] {
				continue
			}
			seen[[2]int{i, j}] = true
			doubles = append(doubles, []faults.StuckAt{pool[i], pool[j]})
		}
		p := simulate.FromVectors(len(e.Circuit.Inputs), vectors)
		cov := simulate.CoverageMultiple(e.Circuit, doubles, p)
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprintf("%d", len(vectors)),
			fmt.Sprintf("%d", cov.Total), fmt.Sprintf("%d", cov.Detected),
			fmt.Sprintf("%.3f", cov.Coverage()),
		})
	}
	return t, nil
}

// X6 measures gate-substitution fault coverage of the same stuck-at test
// sets — the "more logical fault models than just the single stuck-at
// fault" direction of the paper's conclusions, quantified.
func (r *Runner) X6() (report.Table, error) {
	t := report.Table{
		Title:   "X6: gate-substitution fault coverage of complete single stuck-at test sets",
		Columns: []string{"circuit", "vectors", "substitutions", "detected", "coverage"},
	}
	for _, name := range r.cfg.Circuits {
		e, err := r.Engine(name)
		if err != nil {
			return t, err
		}
		vectors, err := r.TestSet(name)
		if err != nil {
			return t, err
		}
		subs := faults.AllGateSubs(e.Circuit)
		if len(subs) > 4*r.cfg.MaxBFs {
			rng := rand.New(rand.NewSource(r.cfg.Seed + 6))
			rng.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
			subs = subs[:4*r.cfg.MaxBFs]
		}
		p := simulate.FromVectors(len(e.Circuit.Inputs), vectors)
		cov := simulate.CoverageGateSubs(e.Circuit, subs, p)
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprintf("%d", len(vectors)),
			fmt.Sprintf("%d", cov.Total), fmt.Sprintf("%d", cov.Detected),
			fmt.Sprintf("%.3f", cov.Coverage()),
		})
	}
	return t, nil
}

// X7 closes the loop on the minimal-design observation: c1355s (the
// XOR-expanded c499s) is re-minimized by the structural optimizer, and the
// mean detectability of its checkpoint faults is compared against both the
// bloated and the original design. The paper argues minimal designs are
// more testable; X7 shows redesign recovers the loss.
func (r *Runner) X7() (report.Table, error) {
	t := report.Table{
		Title:   "X7: redesign for testability — re-minimizing the XOR-expanded corrector",
		Columns: []string{"circuit", "gates", "faults", "mean detectability", "normalized (/#POs)"},
	}
	add := func(label string, s *analysis.StuckAtStudy) {
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%d", s.NetlistSize),
			fmt.Sprintf("%d", len(s.Records)),
			fmt.Sprintf("%.4f", s.MeanDetectable()),
			fmt.Sprintf("%.5f", s.MeanDetectable()/float64(s.NumPOs)),
		})
	}
	orig, err := r.StuckAtStudy("c499s")
	if err != nil {
		return t, err
	}
	bloated, err := r.StuckAtStudy("c1355s")
	if err != nil {
		return t, err
	}
	c, err := circuits.Get("c1355s")
	if err != nil {
		return t, err
	}
	opt := c.Optimize()
	opt.Name = "c1355s.Optimize()"
	e, err := diffprop.New(opt, nil)
	if err != nil {
		return t, err
	}
	reopt, err := analysis.RunStuckAtCampaign(opt, nil, faults.CheckpointStuckAts(e.Circuit), r.campaignConfig(opt.Name+" stuck-at"))
	if err != nil {
		return t, err
	}
	add("c499s (original)", orig)
	add("c1355s (XOR-expanded)", bloated)
	add("c1355s re-minimized", &reopt)
	return t, nil
}

// X8 correlates the SCOAP topological testability estimate with the exact
// per-fault detectability: Spearman rank correlation between SCOAP
// detection cost (controllability + observability) and the exact
// detection probability over the collapsed checkpoint faults. The paper
// shows topology influences fault model performance; X8 quantifies how
// much of the exact picture the standard topological proxy recovers
// (expected: clearly negative, far from -1).
func (r *Runner) X8() (report.Table, error) {
	t := report.Table{
		Title:   "X8: SCOAP cost vs exact detectability (Spearman rank correlation)",
		Columns: []string{"circuit", "faults", "spearman(cost, detectability)", "verdict"},
	}
	for _, name := range r.cfg.Circuits {
		s, err := r.StuckAtStudy(name)
		if err != nil {
			return t, err
		}
		e, err := r.Engine(name)
		if err != nil {
			return t, err
		}
		meas := scoap.Compute(e.Circuit)
		var costs, dets []float64
		for _, rec := range s.Records {
			cost, ok := meas.StuckAtCost(rec.Fault)
			if !ok || !rec.Detectable() {
				continue
			}
			costs = append(costs, float64(cost))
			dets = append(dets, rec.Detectability)
		}
		rho := 0.0
		if len(costs) >= 2 {
			rho = analysis.Spearman(costs, dets)
		}
		verdict := "proxy uninformative"
		if rho < -0.2 {
			verdict = "proxy carries signal"
		} else if rho > 0.2 {
			verdict = "proxy inverted (!)"
		}
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprintf("%d", len(costs)), fmt.Sprintf("%+.4f", rho), verdict,
		})
	}
	return t, nil
}

// X9 uses the exact detection probabilities the way random-pattern testing
// does (the context of the paper's refs [11] and [19]): the expected
// coverage after N uniform random patterns is mean(1-(1-p_i)^N), which is
// compared against actual random-pattern fault simulation.
func (r *Runner) X9() (report.Table, error) {
	t := report.Table{
		Title:   "X9: random-pattern coverage — predicted from exact detectabilities vs simulated",
		Columns: []string{"circuit", "N", "predicted", "simulated", "|diff|"},
	}
	lengths := []int{1, 4, 16, 64, 256, 1024}
	for _, name := range r.cfg.Circuits {
		s, err := r.StuckAtStudy(name)
		if err != nil {
			return t, err
		}
		e, err := r.Engine(name)
		if err != nil {
			return t, err
		}
		fs := faults.CheckpointStuckAts(e.Circuit)
		ps := s.Detectabilities()
		patterns := simulate.Random(len(e.Circuit.Inputs), lengths[len(lengths)-1], r.cfg.Seed+9)
		for _, n := range lengths {
			prefix := &simulate.Patterns{Count: n, Words: make([][]uint64, len(patterns.Words))}
			words := (n + 63) / 64
			for i := range patterns.Words {
				prefix.Words[i] = patterns.Words[i][:words]
			}
			pred := analysis.PredictedRandomCoverage(ps, n)
			sim := simulate.CoverageStuckAt(e.Circuit, fs, prefix).Coverage()
			diff := pred - sim
			if diff < 0 {
				diff = -diff
			}
			t.Rows = append(t.Rows, []string{
				name, fmt.Sprintf("%d", n),
				fmt.Sprintf("%.4f", pred), fmt.Sprintf("%.4f", sim), fmt.Sprintf("%.4f", diff),
			})
		}
	}
	return t, nil
}

// X10 runs exact functional fault collapsing (the paper's ref [7],
// decided exactly via canonical per-output difference functions): the
// structurally collapsed checkpoint set is partitioned into true
// functional equivalence classes, revealing the collapsing still left on
// the table. The two largest circuits are skipped — the analysis must
// disable BDD compaction, which is memory-hungry at their size.
func (r *Runner) X10() (report.Table, error) {
	t := report.Table{
		Title:   "X10: exact functional fault equivalence over the structurally collapsed checkpoint sets",
		Columns: []string{"circuit", "collapsed faults", "exact classes", "ratio", "largest class"},
	}
	for _, name := range r.cfg.Circuits {
		if name == "c1355s" || name == "c1908s" {
			t.Rows = append(t.Rows, []string{name, "-", "-", "-", "skipped (no-compaction run too large)"})
			continue
		}
		c, err := circuits.Get(name)
		if err != nil {
			return t, err
		}
		e, err := diffprop.New(c, &diffprop.Options{RebuildLimit: 1 << 29})
		if err != nil {
			return t, err
		}
		fs := faults.CheckpointStuckAts(e.Circuit)
		classes, err := analysis.ExactEquivalenceClasses(e, fs)
		if err != nil {
			return t, err
		}
		largest := 0
		for _, cl := range classes {
			if len(cl.Faults) > largest {
				largest = len(cl.Faults)
			}
		}
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprintf("%d", len(fs)), fmt.Sprintf("%d", len(classes)),
			fmt.Sprintf("%.3f", analysis.CollapseRatio(classes)), fmt.Sprintf("%d", largest),
		})
	}
	return t, nil
}

// X11 measures exact syndrome testability (Savir, the paper's ref [11]):
// the fraction of detectable checkpoint faults whose flips change some
// output's ones-count — the faults a pure syndrome (ones-counting) tester
// can see. The gap to 1.0 is the blind spot syndrome-testable design
// exists to close.
func (r *Runner) X11() (report.Table, error) {
	t := report.Table{
		Title:   "X11: syndrome testability (Savir ones-counting) of detectable checkpoint faults",
		Columns: []string{"circuit", "detectable faults", "syndrome-testable", "fraction"},
	}
	for _, name := range r.cfg.Circuits {
		e, err := r.Engine(name)
		if err != nil {
			return t, err
		}
		fs := faults.CheckpointStuckAts(e.Circuit)
		det, synd := 0, 0
		for _, f := range fs {
			res := e.StuckAt(f)
			if !res.Detectable() {
				continue
			}
			det++
			if analysis.SyndromeTestable(e, res) {
				synd++
			}
		}
		frac := 0.0
		if det > 0 {
			frac = float64(synd) / float64(det)
		}
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprintf("%d", det), fmt.Sprintf("%d", synd), fmt.Sprintf("%.3f", frac),
		})
	}
	return t, nil
}

// X12 closes the loop on the layout model of §2.2: the paper samples
// bridging faults by estimated wire distance but never asks whether
// distance predicts detectability. X12 reports the Spearman rank
// correlation between a sampled NFBF's normalized wire distance and its
// exact detectability, per circuit and wired behavior.
func (r *Runner) X12() (report.Table, error) {
	t := report.Table{
		Title:   "X12: does estimated wire distance predict bridging detectability?",
		Columns: []string{"circuit", "kind", "faults", "spearman(distance, detectability)"},
	}
	for _, name := range r.cfg.Circuits {
		e, err := r.Engine(name)
		if err != nil {
			return t, err
		}
		p := layout.Place(e.Circuit)
		for _, kind := range []faults.BridgeKind{faults.WiredAND, faults.WiredOR} {
			s, err := r.BridgingStudy(name, kind)
			if err != nil {
				return t, err
			}
			all := faults.AllNFBFs(e.Circuit, kind)
			norm := layout.MaxDistance(p, all)
			var ds, dets []float64
			for _, rec := range s.Records {
				if !rec.Detectable() {
					continue
				}
				d := p.Distance(rec.Fault.U, rec.Fault.V)
				if norm > 0 {
					d /= norm
				}
				ds = append(ds, d)
				dets = append(dets, rec.Detectability)
			}
			rho := 0.0
			if len(ds) >= 2 {
				rho = analysis.Spearman(ds, dets)
			}
			t.Rows = append(t.Rows, []string{
				name, kind.String(), fmt.Sprintf("%d", len(ds)), fmt.Sprintf("%+.4f", rho),
			})
		}
	}
	return t, nil
}

// Summary produces the cross-circuit overview table the paper never had
// space to print: per circuit, the fault-set sizes and the headline exact
// statistics of both fault models.
func (r *Runner) Summary() (report.Table, error) {
	t := report.Table{
		Title: "summary: exact fault-model statistics per circuit",
		Columns: []string{"circuit", "gates", "PIs", "POs", "SA faults", "SA cov",
			"SA mean det", "AND-BF mean", "OR-BF mean", "BF SA-like (AND/OR)"},
	}
	for _, name := range r.cfg.Circuits {
		s, err := r.StuckAtStudy(name)
		if err != nil {
			return t, err
		}
		ba, err := r.BridgingStudy(name, faults.WiredAND)
		if err != nil {
			return t, err
		}
		bo, err := r.BridgingStudy(name, faults.WiredOR)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", s.NetlistSize),
			fmt.Sprintf("%d", s.NumPIs),
			fmt.Sprintf("%d", s.NumPOs),
			fmt.Sprintf("%d", len(s.Records)),
			fmt.Sprintf("%.3f", s.CoverageRate()),
			fmt.Sprintf("%.4f", s.MeanDetectable()),
			fmt.Sprintf("%.4f", ba.MeanDetectable()),
			fmt.Sprintf("%.4f", bo.MeanDetectable()),
			fmt.Sprintf("%.3f/%.3f", ba.StuckAtProportion(), bo.StuckAtProportion()),
		})
	}
	return t, nil
}

// sortSeriesByX orders each series' points by ascending X so trend plots
// read left to right even when catalog order differs from working-netlist
// size order.
func sortSeriesByX(series []report.Series) {
	for i := range series {
		s := &series[i]
		idx := make([]int, len(s.X))
		for j := range idx {
			idx[j] = j
		}
		sort.Slice(idx, func(a, b int) bool { return s.X[idx[a]] < s.X[idx[b]] })
		x := make([]float64, len(s.X))
		y := make([]float64, len(s.Y))
		for j, k := range idx {
			x[j], y[j] = s.X[k], s.Y[k]
		}
		s.X, s.Y = x, y
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Exhibit is one rendered experiment output.
type Exhibit struct {
	ID   string
	Text string
	CSV  string
}

// All regenerates every exhibit in paper order.
func (r *Runner) All() ([]Exhibit, error) {
	var out []Exhibit
	t1 := r.Table1()
	out = append(out, Exhibit{ID: "table1", Text: t1.Text(), CSV: t1.CSV()})
	figs := []func() (report.Figure, error){
		r.Fig1, r.Fig2, r.Fig3, r.Fig4, r.Fig5, r.Fig6, r.Fig7, r.Fig8,
	}
	for _, fn := range figs {
		f, err := fn()
		if err != nil {
			return nil, err
		}
		out = append(out, Exhibit{ID: f.ID, Text: f.Text(), CSV: f.CSV()})
	}
	tables := []func() (report.Table, error){r.X1, r.X2, r.X3, r.X4, r.X5, r.X6, r.X7, r.X8, r.X9, r.X10, r.X11, r.X12, r.Summary}
	ids := []string{"x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9", "x10", "x11", "x12", "summary"}
	for i, fn := range tables {
		t, err := fn()
		if err != nil {
			return nil, err
		}
		out = append(out, Exhibit{ID: ids[i], Text: t.Text(), CSV: t.CSV()})
	}
	return out, nil
}
