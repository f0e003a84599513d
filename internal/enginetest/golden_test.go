package enginetest

import (
	"flag"
	"fmt"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/counters.golden from this run's static-planner counters")

// TestMain wires the -update flag: an update run records instead of
// asserting and, if it passed, writes the golden file back. Lines of
// configurations the run did not reach (a -run filter) are kept.
func TestMain(m *testing.M) {
	flag.Parse()
	goldenUpdate = *update
	code := m.Run()
	if goldenUpdate && code == 0 {
		if err := os.WriteFile("testdata/counters.golden", []byte(formatGolden(golden)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// TestCountersGoldenComplete keeps the golden file exactly as wide as
// the matrix it pins: one line per golden workload × table query ×
// strategy set, no stale line left behind by a renamed query.
func TestCountersGoldenComplete(t *testing.T) {
	if goldenUpdate {
		t.Skip("regenerating")
	}
	want := 0
	for _, w := range goldenWorkloads {
		for _, q := range UniversityQueries {
			for _, strat := range StrategySets() {
				want++
				if key := fmt.Sprintf("%s/%s/%s", w, q.Name, strat); golden[key] == "" {
					t.Errorf("testdata/counters.golden lacks %s", key)
				}
			}
		}
	}
	if len(golden) != want {
		t.Errorf("testdata/counters.golden has %d lines, the matrix has %d configurations", len(golden), want)
	}
}
