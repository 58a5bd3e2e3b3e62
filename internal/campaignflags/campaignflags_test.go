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
	return f.Campaign()
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
		"-budget 1 -retrybudget 1e12 -nodelimit 1",
		"-retrybudget 16 -calibrate -workers 3",
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
	// A malformed value is a parse error. There is no wall-clock budget,
	// no sift rung and no in-process heap ceiling: their old flags must be
	// refused, not silently ignored.
	for _, args := range [][]string{{"-nodelimit", "lots"}, {"-timeout", "1s"}, {"-gcauto"}, {"-memlimit", "2GiB"}, {"-memlimit", "off"}} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		Register(fs, 1)
		if err := fs.Parse(args); err == nil {
			t.Errorf("%q parsed, want an undefined-flag error", args)
		}
	}
}
