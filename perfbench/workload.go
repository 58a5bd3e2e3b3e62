package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/analysis"
	"repro/internal/circuits"
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/simulate"
)

// Workload names. The C1908 pair runs the same faults under two campaign
// topologies; the catalog is the only workload that exercises bridging.
const (
	wlC1908   = "sa-c1908"
	wlShards  = "sa-c1908-shards"
	wlCatalog = "catalog-small"
)

var workloadNames = []string{wlC1908, wlShards, wlCatalog}

// campaignWorkers is the worker (or shard) count of every measured
// campaign. It is fixed rather than taken from the host so that a workload
// is the same batch of work on every machine; the baseline host has 2 CPUs.
const campaignWorkers = 2

// bridgeTheta is the paper's layout-distance parameter for NFBF sampling.
const bridgeTheta = 0.3

// exhaustiveMaxInputs bounds the circuits whose stuck-at detectabilities
// are checked against exhaustive simulation.
const exhaustiveMaxInputs = 16

// catalogSpec sizes the catalog-small fault sets. A zero saMax keeps every
// collapsed checkpoint fault; bfMax caps each wired-AND and wired-OR NFBF
// sample. The caps keep each of the four larger circuits at a similar
// share of the campaign time. A c499s bridge costs 0.3-1M BDD operations
// depending on which wires it joins, so its samples stay tiny: larger ones
// made the run's work and peak memory depend on the seed by 15-50%.
var catalogSpec = []struct {
	name         string
	saMax, bfMax int
}{
	{"c17", 0, 1000},
	{"fadd", 0, 1000},
	{"c95s", 0, 1000},
	{"alu181", 0, 450},
	{"c432s", 0, 450},
	{"c499s", 150, 6},
}

// mix is splitmix64: it spreads a seed into independent-looking bits.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// c1908Size is the C1908 batch length for a seed. cmd/diffprop selects
// faults only as a prefix of the collapsed checkpoint list (-max), and the
// sharded workload must analyze exactly the in-process faults, so the seed
// picks the prefix length. The window is narrow because the first ~50
// faults carry most of the BDD work: a wider one would make faults/s vary
// with the seed more than with the code.
func c1908Size(seed int64) int { return 112 + int(mix(uint64(seed))%8) }

// campaign is one fault set of a workload: stuck-at faults or one bridging
// model over one circuit, with sites in the circuit's two-input
// decomposition (the working circuit of any engine built from it).
type campaign struct {
	key     string
	circuit *netlist.Circuit
	work    *netlist.Circuit
	sa      []faults.StuckAt
	bf      []faults.Bridging
	kind    faults.BridgeKind
	pop     int
	sampled bool
}

func (c *campaign) size() int { return len(c.sa) + len(c.bf) }

func (c *campaign) header() analysis.CheckpointHeader {
	if c.sa != nil {
		return analysis.StuckAtCheckpointHeader(c.work, c.sa)
	}
	return analysis.BridgingCheckpointHeader(c.work, c.bf)
}

// loadCircuit builds a catalog circuit and its two-input decomposition with
// the topology caches the campaign runners read.
func loadCircuit(name string, tr *tracer) (c, work *netlist.Circuit, err error) {
	tr.timed("netlist.load "+name, "netlist", func() {
		c, err = circuits.Get(name)
		if err != nil {
			return
		}
		work = c.Decompose2()
		work.Fanout()
		work.Levels()
		work.MaxLevelsToPO()
	})
	return c, work, err
}

// buildCampaigns derives a workload's fault sets from its seed. The
// program under test receives only these lists.
func buildCampaigns(workload string, seed int64, tr *tracer) ([]*campaign, error) {
	switch workload {
	case wlC1908, wlShards:
		c, work, err := loadCircuit("c1908s", tr)
		if err != nil {
			return nil, err
		}
		cp := &campaign{key: "c1908s/sa", circuit: c, work: work}
		tr.timed("faults.enum c1908s", "faults", func() {
			cp.sa = faults.CheckpointStuckAts(work)[:c1908Size(seed)]
		})
		return []*campaign{cp}, nil
	case wlCatalog:
		var out []*campaign
		for i, spec := range catalogSpec {
			c, work, err := loadCircuit(spec.name, tr)
			if err != nil {
				return nil, err
			}
			sub := mix(uint64(seed) ^ uint64(i+1)<<32)
			sa := &campaign{key: spec.name + "/sa", circuit: c, work: work}
			tr.timed("faults.enum "+sa.key, "faults", func() {
				sa.sa = sampleStuckAts(faults.CheckpointStuckAts(work), spec.saMax, int64(sub>>1))
			})
			out = append(out, sa)
			for k, kind := range []faults.BridgeKind{faults.WiredAND, faults.WiredOR} {
				bc := &campaign{key: spec.name + "/" + [...]string{"and", "or"}[k], circuit: c, work: work, kind: kind}
				tr.timed("faults.enum "+bc.key, "faults", func() {
					bc.bf, bc.pop, bc.sampled = analysis.BridgingSet(work, kind, spec.bfMax, bridgeTheta, int64(mix(sub+uint64(k))>>1))
				})
				out = append(out, bc)
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// sampleStuckAts keeps n faults spaced evenly through the list from a
// seeded offset, in list order (all of them when n is 0 or covers the
// list). Even spacing keeps the sample's mix of deep and shallow sites,
// and so its cost, close to the whole list's for every seed.
func sampleStuckAts(fs []faults.StuckAt, n int, seed int64) []faults.StuckAt {
	if n <= 0 || n >= len(fs) {
		return fs
	}
	stride := float64(len(fs)) / float64(n)
	off := rand.New(rand.NewSource(seed)).Float64() * stride
	out := make([]faults.StuckAt, n)
	for i := range out {
		out[i] = fs[int(off+float64(i)*stride)]
	}
	return out
}

// studyOut is a finished campaign's records and runtime stats.
type studyOut struct {
	stats analysis.CampaignStats
	sa    []analysis.StuckAtRecord
	bf    []analysis.BridgingRecord
}

func (c *campaign) run(cfg analysis.CampaignConfig) (studyOut, error) {
	if c.sa != nil {
		s, err := analysis.RunStuckAtCampaign(c.circuit, nil, c.sa, cfg)
		return studyOut{stats: s.Stats, sa: s.Records}, err
	}
	s, err := analysis.RunBridgingCampaign(c.circuit, nil, c.bf, c.kind, c.pop, c.sampled, cfg)
	return studyOut{stats: s.Stats, bf: s.Records}, err
}

// digest returns one hash per record, in fault order, and the number of
// records that are not exact: degraded, errored or skipped.
func (o studyOut) digest() (hashes []string, bad int) {
	for _, r := range o.sa {
		hashes = append(hashes, recordHash(r))
		if r.Approximate || r.Err != "" || r.Skipped {
			bad++
		}
	}
	for _, r := range o.bf {
		hashes = append(hashes, recordHash(r))
		if r.Approximate || r.Err != "" || r.Skipped {
			bad++
		}
	}
	return hashes, bad
}

// recordHash hashes a record's JSON encoding, which is also the form a
// checkpoint persists, so in-process records and checkpoint lines compare.
func recordHash(rec any) string {
	raw, err := json.Marshal(rec)
	if err != nil {
		panic(fmt.Sprintf("marshal record: %v", err))
	}
	return rawHash(raw)
}

func rawHash(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

// checkpointHashes reads a checkpoint's records and hashes them in index
// order; missing indices hash as "".
func checkpointHashes(path string) ([]string, error) {
	hdr, recs, _, err := analysis.LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	out := make([]string, hdr.Faults)
	for i, raw := range recs {
		out[i] = rawHash(raw)
	}
	return out, nil
}

// timedCampaign runs one campaign, in a span when tr is set, checkpointed
// to path when path is set. It returns the campaign time: from the first
// dispatch (the campaign's return minus CampaignStats.Elapsed, which
// excludes engine synthesis) through the close of the checkpoint.
func timedCampaign(tr *tracer, name string, c *campaign, cfg analysis.CampaignConfig, path string) (studyOut, time.Duration, error) {
	var (
		so    studyOut
		err   error
		spent time.Duration
	)
	tr.timed(name, "analysis", func() {
		var cp *analysis.Checkpointer
		if path != "" {
			if cp, err = analysis.CreateCheckpoint(path, c.header()); err != nil {
				return
			}
			cfg.Checkpoint = cp
		}
		so, err = c.run(cfg)
		returned := time.Now()
		if cp != nil {
			if cerr := cp.Close(); err == nil {
				err = cerr
			}
		}
		spent = time.Since(returned) + so.stats.Elapsed
	})
	if err != nil {
		return so, 0, fmt.Errorf("%s: %w", c.key, err)
	}
	return so, spent, nil
}

// repResult is what one measured repetition reports to the orchestrator.
type repResult struct {
	SetupS    float64             `json:"setup_s"`
	CampaignS float64             `json:"campaign_s"`
	Faults    int                 `json:"faults"`
	Bad       int                 `json:"bad"`
	Hashes    map[string][]string `json:"hashes"`
}

// childRep runs one measured repetition of an in-process workload: every
// campaign with campaignWorkers workers, checkpointed on catalog-small.
// Set-up is the time between process start (t0, stamped by the parent
// just before exec) and the end of the last campaign that is not campaign
// time (see timedCampaign).
func childRep(workload string, seed, t0 int64, dir string) (repResult, error) {
	cs, err := buildCampaigns(workload, seed, nil)
	if err != nil {
		return repResult{}, err
	}
	outs := make([]studyOut, len(cs))
	paths := make([]string, len(cs))
	var campaign time.Duration
	for i, c := range cs {
		if workload == wlCatalog {
			paths[i] = filepath.Join(dir, fmt.Sprintf("campaign-%02d.jsonl", i))
		}
		out, spent, err := timedCampaign(nil, "", c, analysis.CampaignConfig{Workers: campaignWorkers}, paths[i])
		if err != nil {
			return repResult{}, err
		}
		campaign += spent
		outs[i] = out
	}
	end := time.Now().UnixNano()
	res := repResult{
		SetupS:    float64(end-t0-int64(campaign)) / 1e9,
		CampaignS: campaign.Seconds(),
		Hashes:    map[string][]string{},
	}
	for i, c := range cs {
		hashes, bad := outs[i].digest()
		res.Faults += c.size()
		res.Bad += bad
		if paths[i] != "" {
			// The checkpoint must hold exactly the study's records.
			persisted, err := checkpointHashes(paths[i])
			if err != nil {
				return repResult{}, err
			}
			res.Bad += countMismatches(persisted, hashes)
		}
		res.Hashes[c.key] = hashes
	}
	return res, nil
}

// refResult is the serial reference of a workload's seed.
type refResult struct {
	Hashes         map[string][]string `json:"hashes"`
	OracleChecked  int                 `json:"oracle_checked"`
	OracleMismatch int                 `json:"oracle_mismatch"`
}

// childRef computes the reference: every campaign of the seed run by one
// worker. For the C1908 workloads it also writes that run's checkpoint,
// which the merged checkpoint of a sharded run must equal byte for byte.
// Stuck-at detectabilities of circuits with at most exhaustiveMaxInputs
// inputs are checked against exhaustive simulation.
func childRef(workload string, seed int64, ckpt string) (refResult, error) {
	cs, err := buildCampaigns(workload, seed, nil)
	if err != nil {
		return refResult{}, err
	}
	res := refResult{Hashes: map[string][]string{}}
	for _, c := range cs {
		out, _, err := timedCampaign(nil, "", c, analysis.CampaignConfig{Workers: 1}, ckpt)
		if err != nil {
			return refResult{}, err
		}
		res.Hashes[c.key], _ = out.digest()
		if len(c.work.Inputs) <= exhaustiveMaxInputs {
			for _, r := range out.sa {
				res.OracleChecked++
				if r.Detectability != simulate.ExhaustiveDetectabilityStuckAt(c.work, r.Fault) {
					res.OracleMismatch++
				}
			}
		}
	}
	return res, nil
}

// countMismatches counts positions where got differs from want, plus any
// length difference.
func countMismatches(got, want []string) int {
	n := 0
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			n++
		}
	}
	if len(got) > len(want) {
		n += len(got) - len(want)
	}
	return n
}
