package bench

import (
	"fmt"
	"sort"
	"strings"

	"panorama/internal/obs"
)

// EffortSnapshot captures the process-wide pipeline metrics so a
// harness section can report the solver effort it spent as the
// difference of two snapshots (see RenderEffort).
func EffortSnapshot() map[string]float64 {
	return obs.Default.Snapshot()
}

// RenderEffort renders the metric deltas between two EffortSnapshots
// as the per-section effort appendix cmd/experiments prints under each
// table: every panorama_* counter and histogram sum/count that moved,
// sorted by name. An empty string means nothing moved.
func RenderEffort(before, after map[string]float64) string {
	keys := make([]string, 0, len(after))
	for k := range after {
		if strings.HasPrefix(k, "panorama_") && after[k] != before[k] {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return ""
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("effort appendix (metric deltas for this section):\n")
	for _, k := range keys {
		d := after[k] - before[k]
		if d == float64(int64(d)) {
			fmt.Fprintf(&sb, "  %-52s %+d\n", k, int64(d))
		} else {
			fmt.Fprintf(&sb, "  %-52s %+.4g\n", k, d)
		}
	}
	return sb.String()
}
