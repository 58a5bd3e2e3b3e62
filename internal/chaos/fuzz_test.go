package chaos

import (
	"strings"
	"testing"
)

// FuzzParse hammers the -chaos spec grammar with arbitrary input. Parse
// is the first thing an operator's command line reaches, so it must
// never panic, and anything it accepts must be a config the compiler
// (New) can arm without blowing up — a spec that parses but cannot
// compile would fail a campaign at launch instead of at flag parsing.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"  ",
		"seed=7;budget:p=0.35;latency:p=0.2,d=2ms",
		"budget:i=3+17+42,at=5,count=2",
		"ckptwrite:i=5,bytes=10;ckptsync:p=0.01",
		"seed=-9223372036854775808;panic:p=1",
		"workerkill:i=7,rep=1;hbstall:i=2;shardtear:p=0.1,bytes=20",
		"seed=3;workerkill:p=0.5,rep=0",
		"bogus:p=0.5",
		"memsample:count=3,mem=1073741824",
		"budget:p=2",
		"budget:p=0.5,i=1",
		"latency:d=-1s",
		"seed=x",
		";;;",
		"budget:",
		"budget:,,",
		"budget:i=",
		"shardtear:bytes=-1",
		strings.Repeat("budget:p=0.1;", 100),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := Parse(spec)
		if err != nil {
			if cfg != nil {
				t.Fatalf("Parse(%q) returned both a config and error %v", spec, err)
			}
			return
		}
		if cfg == nil {
			// Only the chaos-off spelling (blank spec) may yield nil, nil.
			if strings.TrimSpace(spec) != "" {
				t.Fatalf("Parse(%q) = nil, nil for a non-blank spec", spec)
			}
			return
		}
		if len(cfg.Rules) == 0 {
			t.Fatalf("Parse(%q) accepted a spec arming no rules", spec)
		}
		for _, r := range cfg.Rules {
			if r.Point >= numPoints {
				t.Fatalf("Parse(%q) produced out-of-range point %d", spec, r.Point)
			}
			if r.Prob < 0 || r.Prob > 1 {
				t.Fatalf("Parse(%q) produced probability %v", spec, r.Prob)
			}
			for _, i := range r.Indices {
				if i < 0 {
					t.Fatalf("Parse(%q) produced negative index %d", spec, i)
				}
			}
		}
		// Every accepted spec must compile into a live injector.
		if in := New(cfg); in == nil {
			t.Fatalf("Parse(%q) accepted a spec New refuses", spec)
		}
	})
}
