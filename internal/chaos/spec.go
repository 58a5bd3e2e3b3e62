// Compact spec grammar for arming the harness from a command line.
//
// A spec is semicolon-separated segments. The first segment may be
// "seed=<int>"; every other segment is "<point>:<key>=<val>,..." arming
// one rule, e.g.
//
//	seed=7;budget:p=0.35;latency:p=0.2,d=2ms;ckptwrite:i=5,bytes=10
//
// Points: budget, nodelimit, panic, latency, ckptwrite, ckptsync,
// workerkill, hbstall, shardtear. Keys: p (probability), i (indices,
// '+'-separated), at (charged-op threshold for budget/nodelimit), count
// (max firings), d (latency duration), bytes (torn-write prefix length),
// rep=1 (re-arm a process-level point on every worker restart — the
// poison-fault scenario).
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Parse compiles a spec string into a Config. The empty string yields a
// nil Config (chaos off).
func Parse(spec string) (*Config, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	cfg := &Config{}
	for segNo, seg := range strings.Split(spec, ";") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		if v, ok := strings.CutPrefix(seg, "seed="); ok {
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad seed %q", v)
			}
			cfg.Seed = seed
			continue
		}
		name, args, _ := strings.Cut(seg, ":")
		p, ok := PointByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("chaos: segment %d: unknown injection point %q (want budget, nodelimit, panic, latency, ckptwrite, ckptsync, workerkill, hbstall or shardtear)", segNo+1, name)
		}
		r := Rule{Point: p}
		if strings.TrimSpace(args) != "" {
			for _, kv := range strings.Split(args, ",") {
				k, v, _ := strings.Cut(strings.TrimSpace(kv), "=")
				if err := r.set(k, v); err != nil {
					return nil, fmt.Errorf("chaos: segment %d (%s): %w", segNo+1, name, err)
				}
			}
		}
		if len(r.Indices) > 0 && r.Prob > 0 {
			return nil, fmt.Errorf("chaos: segment %d (%s): i= and p= are mutually exclusive", segNo+1, name)
		}
		cfg.Rules = append(cfg.Rules, r)
	}
	if len(cfg.Rules) == 0 {
		return nil, fmt.Errorf("chaos: spec %q arms no injection points", spec)
	}
	return cfg, nil
}

// set applies one key=value pair to the rule.
func (r *Rule) set(k, v string) error {
	switch k {
	case "p":
		p, err := strconv.ParseFloat(v, 64)
		if err != nil || p < 0 || p > 1 {
			return fmt.Errorf("bad probability p=%q (want 0..1)", v)
		}
		r.Prob = p
	case "i":
		for _, s := range strings.Split(v, "+") {
			idx, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || idx < 0 {
				return fmt.Errorf("bad index list i=%q (want e.g. i=3+17+42)", v)
			}
			r.Indices = append(r.Indices, idx)
		}
	case "at":
		at, err := strconv.ParseInt(v, 10, 64)
		if err != nil || at < 1 {
			return fmt.Errorf("bad op threshold at=%q (want >= 1)", v)
		}
		r.AtOp = at
	case "count":
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 1 {
			return fmt.Errorf("bad count=%q (want >= 1)", v)
		}
		r.Count = n
	case "d":
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return fmt.Errorf("bad duration d=%q (want e.g. 2ms)", v)
		}
		r.Latency = d
	case "bytes":
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return fmt.Errorf("bad bytes=%q (want >= 0)", v)
		}
		r.Bytes = n
	case "rep":
		b, err := strconv.ParseBool(v)
		if err != nil {
			return fmt.Errorf("bad rep=%q (want rep=1 or rep=0)", v)
		}
		r.Repeat = b
	default:
		return fmt.Errorf("unknown key %q (want p, i, at, count, d, bytes or rep)", k)
	}
	return nil
}
