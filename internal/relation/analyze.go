package relation

import (
	"pascalr/internal/stats"
)

// Analyze forces a statistics rebuild: every relation is rescanned and
// its live statistics replaced with freshly bucketed histograms (true
// quantile boundaries, exact distinct counts), then an estimator over
// the new statistics is returned.
//
// Analyze is no longer a prerequisite for cost-based planning — the
// mutators maintain the statistics incrementally and Estimator() serves
// them without any scan. It remains useful after churn heavy enough
// that the incrementally maintained bucket boundaries degraded (the
// drift threshold schedules the same rebuild in the background
// automatically), and as the explicit rebuild hook tests and tools
// reach for.
//
// The rebuild scans take the content lock per relation like any other
// reader — Analyze must not be called while holding the database read
// lock.
func (d *DB) Analyze() *stats.Estimator {
	d.catMu.RLock()
	rels := append([]*Relation(nil), d.byID...)
	d.catMu.RUnlock()
	for _, r := range rels {
		r.rebuildStats()
	}
	return d.Estimator()
}
