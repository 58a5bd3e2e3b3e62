// Shard leases: the unit of work the supervisor dispatches, tracks, and
// re-dispatches across worker subprocess lifetimes.
package supervise

import (
	"fmt"
	"strconv"
	"strings"
)

// Shard is one lease over the global fault range [Lo, Hi): a contiguous
// slice of the campaign's fault set, analyzed by one worker subprocess at
// a time against its own fingerprinted checkpoint at Path. The supervisor
// owns the lease for the shard's whole life — across worker deaths,
// restarts and bisections — and a shard only leaves the lease table by
// completing or by splitting into two child leases.
type Shard struct {
	// Lo and Hi bound the global fault range [Lo, Hi).
	Lo, Hi int
	// Path is the shard's checkpoint file. Workers resume from it on
	// restart, so faults completed before a death are never recomputed.
	Path string
	// Attempt counts worker launches for this lease (0 = first). It is
	// also the restarted worker's chaos attempt (process-level injection
	// points without rep= fire only at attempt 0).
	Attempt int
}

// Size is the shard's fault count.
func (s Shard) Size() int { return s.Hi - s.Lo }

// Range renders the shard's global range as the protocol/flag form
// "lo-hi".
func (s Shard) Range() string { return fmt.Sprintf("%d-%d", s.Lo, s.Hi) }

// ParseRange parses the "lo-hi" form back into a [lo, hi) range,
// rejecting empty and inverted ranges.
func ParseRange(s string) (lo, hi int, err error) {
	a, b, ok := strings.Cut(s, "-")
	if ok {
		var e1, e2 error
		lo, e1 = strconv.Atoi(a)
		hi, e2 = strconv.Atoi(b)
		if e1 == nil && e2 == nil && lo >= 0 && hi > lo {
			return lo, hi, nil
		}
	}
	return 0, 0, fmt.Errorf("supervise: bad shard range %q (want \"lo-hi\" with 0 <= lo < hi)", s)
}
