package campaignflags

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
)

func parse(t *testing.T, workers int, args []string) analysis.CampaignConfig {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, workers)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	cfg, err := f.Campaign()
	if err != nil {
		t.Fatalf("campaign %q: %v", args, err)
	}
	return cfg
}

// TestArgsRoundTrip pins the contract between a parent process and the
// diffprop subprocesses it runs: rendering a parsed configuration and
// parsing the rendering yields the same configuration, under either
// command's -workers default.
func TestArgsRoundTrip(t *testing.T) {
	for _, args := range []string{
		"",
		"-workers 4",
		"-workers 0 -calibrate",
		"-nodelimit 5000",
		"-nodelimit 70000 -retrybudget 16",
		"-retrybudget 0.5",
		"-budget 200000 -nodelimit 5000",
		"-budget -1",
		"-memlimit 2GiB",
		"-memlimit 512MiB -workers 3",
		"-memlimit off",
		"-v -shards 2 -worker-binary /bin/diffprop -shard-dir d -log info -logjson",
	} {
		for _, workers := range []int{0, 1} {
			first := parse(t, workers, strings.Fields(args))
			rendered := Args(first)
			for _, otherDefault := range []int{0, 1} {
				if again := parse(t, otherDefault, rendered); !reflect.DeepEqual(again, first) {
					t.Errorf("%q (workers default %d) rendered as %q parses to\n%+v, want\n%+v",
						args, workers, rendered, again, first)
				}
			}
		}
	}
}

func TestCampaignRejectsBadValues(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, 1)
	if err := fs.Parse([]string{"-memlimit", "lots"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Campaign(); err == nil || !strings.Contains(err.Error(), "-memlimit") {
		t.Errorf("-memlimit lots: error %v, want one naming -memlimit", err)
	}
	// There is no wall-clock budget and no sift rung: their old flags must
	// be refused, not silently ignored.
	for _, args := range [][]string{{"-timeout", "1s"}, {"-gcauto"}} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		Register(fs, 1)
		if err := fs.Parse(args); err == nil {
			t.Errorf("%q parsed, want an undefined-flag error", args)
		}
	}
}
