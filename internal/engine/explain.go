package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"pascalr/internal/value"
)

// Explain executes the plan once and reports estimated versus actual
// cardinalities per scan and per combination-phase join, so estimate
// quality — the input every cost-based decision depends on — is
// directly observable. The query runs to completion (the construction
// phase is drained to count result tuples); counters merge into the
// engine's sink as for any execution.
func (p *Plan) Explain(ctx context.Context) (string, error) {
	return p.ExplainWith(ctx, nil)
}

// ExplainWith is Explain with per-execution option overrides; see
// EvalWith.
// The report reads the plan's collection structures, so the execution
// keeps them until the report is built, and only then returns its
// workspace.
func (p *Plan) ExplainWith(ctx context.Context, override func(*Options)) (string, error) {
	cur, pp, err := p.rowsWithPlan(ctx, override, true)
	if err != nil {
		return "", err
	}
	defer cur.Close()
	rows := 0
	for cur.Next() {
		rows++
	}
	if err := cur.Err(); err != nil {
		return "", err
	}
	return formatExplain(pp, rows), nil
}

func formatExplain(pp *plan, rows int) string {
	var b strings.Builder
	planner := "static"
	if pp.est != nil {
		planner = "cost-based"
	}
	fmt.Fprintf(&b, "strategies: %s, planner: %s\n", pp.strat, planner)
	fmt.Fprintf(&b, "scan order: %s\n", strings.Join(pp.order, " -> "))
	var totalBatches int64
	for _, job := range pp.jobs {
		totalBatches += job.batches
	}
	fmt.Fprintf(&b, "execution: %d scans (%d batches)\n", len(pp.jobs), totalBatches)
	b.WriteString("scans (estimated vs actual surviving tuples):\n")
	for _, v := range pp.order {
		node := pp.vars[v]
		est := "-"
		if pp.est != nil {
			est = fmt.Sprintf("%.1f", pp.estCard(v))
		}
		actual, how := pp.actualCard(v)
		fmt.Fprintf(&b, "  %-12s IN %-12s est %-8s actual %d (%s)\n", v, node.rng.Rel, est, actual, how)
	}
	if len(pp.joinLog) > 0 {
		b.WriteString("joins (estimated vs actual output):\n")
		for _, j := range pp.joinLog {
			est := "-"
			if j.est >= 0 {
				est = fmt.Sprintf("%.1f", j.est)
			}
			fmt.Fprintf(&b, "  (%s) est %-8s actual %d\n", j.vars, est, j.got)
		}
	}
	if structs := pp.st.Structures; len(structs) > 0 {
		b.WriteString("structures:\n")
		lines := make([]string, 0, len(structs))
		for _, s := range structs {
			lines = append(lines, fmt.Sprintf("  %-24s %-13s size=%d", s.Name, s.Kind, s.Size))
		}
		sort.Strings(lines)
		b.WriteString(strings.Join(lines, "\n"))
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "result: %d tuples\n", rows)
	return b.String()
}

// annotateScanSpans stamps each scan job's trace span with the same
// estimated and actual cardinalities EXPLAIN reports, per variable the
// job scanned for. Called once after the collection phase materialized
// the structures actualCard reads.
func (pp *plan) annotateScanSpans() {
	for ji, job := range pp.jobs {
		sp := pp.jobSpans[ji]
		if sp == nil {
			continue
		}
		sp.SetInt("batches", job.batches)
		for _, v := range job.vars {
			if pp.est != nil {
				sp.SetFloat("est."+v, pp.estCard(v))
			}
			actual, how := pp.actualCard(v)
			sp.SetInt("actual."+v, int64(actual))
			sp.SetAttr("via."+v, how)
		}
	}
}

// actualCard reports the variable's observed effective cardinality and
// which structure it was read from: the materialized range list when
// one exists, a single list built over the variable, the distinct
// references the variable contributed to its indirect joins, or — when
// the variable's restriction never materialized on its own side — the
// base relation's size.
func (pp *plan) actualCard(v string) (int, string) {
	if pp.needRange[v] {
		return len(pp.rangeLst[v]), "range list"
	}
	for _, key := range sortedKeys(pp.sls) {
		if sl := pp.sls[key]; sl.v == v {
			return sl.out.Len(), "single list"
		}
	}
	if n, ok := pp.distinctIJRefs(v); ok {
		return n, "indirect joins"
	}
	return pp.vars[v].rel.Len(), "relation size"
}

// distinctIJRefs counts the distinct references of v across the
// indirect joins it participates in. All of them point into v's range
// relation, so a bitset over their slots counts them.
func (pp *plan) distinctIJRefs(v string) (int, bool) {
	var seen []uint64
	n, found := 0, false
	count := func(side int, pairs [][2]int64) {
		found = true
		for _, pr := range pairs {
			_, slot, _ := value.MakeOrd(value.KindRef, pr[side], "").AsRef()
			w, bit := slot/64, uint64(1)<<(slot%64)
			if w >= len(seen) {
				seen = append(seen, make([]uint64, w+1-len(seen))...)
			}
			if seen[w]&bit == 0 {
				seen[w] |= bit
				n++
			}
		}
	}
	for _, cp := range pp.conjs {
		for i, ij := range cp.ijs {
			if cp.ijNames[i][0] == v {
				count(0, ij.Pairs())
			} else if cp.ijNames[i][1] == v {
				count(1, ij.Pairs())
			}
		}
	}
	return n, found
}
