package enginetest

import (
	"crypto/sha256"
	_ "embed"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"pascalr/internal/engine"
)

// testdata/counters.golden pins the paper's machine-independent
// counters (comparisons, probes, tuples read, reference tuples, scan
// order, structure sizes — everything stats.Counters.Fingerprint
// renders) for every table query of the golden workloads × the 32
// strategy sets under the static planner, the deterministic legs of the
// matrix. It was generated by the tuple-at-a-time collection driver
// before that driver was deleted, so it is the surviving witness that
// the columnar driver counts exactly what the paper's algorithm counts.
// One line per configuration:
//
//	workload/query/strategies  rows  sha256(fingerprint)
//
// Regenerate only deliberately, with `go test ./internal/enginetest
// -update`: a diff in this file is a change to what the engine counts.

//go:embed testdata/counters.golden
var goldenData string

// goldenWorkloads are the RunTable workloads the golden file covers.
var goldenWorkloads = []string{"university", "skewed", "permindex"}

// golden maps "workload/query/strategies" to "rows  sha256".
var golden = parseGolden(goldenData)

// goldenUpdate makes checkGolden record instead of assert; set by the
// -update test flag (golden_test.go), which also writes the file back.
var goldenUpdate bool

func parseGolden(data string) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(data, "\n") {
		if f := strings.Fields(line); len(f) == 3 {
			out[f[0]] = f[1] + "  " + f[2]
		}
	}
	return out
}

func formatGolden(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s  %s\n", k, m[k])
	}
	return b.String()
}

// checkGolden asserts (or, under -update, records) one static-planner
// configuration's row count and counter fingerprint. Labels outside
// the golden workloads are not covered.
func checkGolden(t *testing.T, label string, strat engine.Strategy, rows int, fingerprint string) {
	t.Helper()
	if workload, _, _ := strings.Cut(label, "/"); !slices.Contains(goldenWorkloads, workload) {
		return
	}
	key := label + "/" + strat.String()
	got := fmt.Sprintf("%d  %x", rows, sha256.Sum256([]byte(fingerprint)))
	if goldenUpdate {
		golden[key] = got
		return
	}
	if want, ok := golden[key]; !ok {
		t.Fatalf("%s: no line in testdata/counters.golden (regenerate with -update)", key)
	} else if want != got {
		t.Fatalf("%s: counters diverge from testdata/counters.golden\nwant %s\ngot  %s\nfingerprint: %s", key, want, got, fingerprint)
	}
}
