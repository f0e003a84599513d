package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"

	"pascalr/internal/value"
)

// query is one statement of a workload: a selection in the paper's
// concrete syntax, the template it instantiates, and whether it is
// planned cost-based.
type query struct {
	tmpl string // template name, the key into testdata/expected.json
	src  string
	cost bool
}

// The paper's Figure 1 queries, as internal/enginetest spells them.
const (
	srcSample21 = `[<e.ename> OF EACH e IN employees:
	(e.estatus = professor)
	AND
	(ALL p IN papers ((p.pyear <> 1977) OR (e.enr <> p.penr))
	 OR
	 SOME c IN courses ((c.clevel <= sophomore)
		AND SOME t IN timetable ((c.cnr = t.tcnr) AND (e.enr = t.tenr))))]`
	srcSelectiveEquiJoin = `[<c.cnr, t.tenr, t.tday> OF EACH c IN courses, EACH t IN timetable:
	(c.clevel <= sophomore) AND (c.cnr = t.tcnr)]`
	srcThreeWayJoin = `[<e.ename, c.cnr> OF EACH e IN employees, EACH c IN courses, EACH t IN timetable:
	(e.estatus = professor) AND (c.clevel <= sophomore) AND (e.enr = t.tenr) AND (c.cnr = t.tcnr)]`
	srcSomeNested = `[<e.ename> OF EACH e IN employees:
	SOME c IN courses ((c.clevel <= sophomore)
		AND SOME t IN timetable ((c.cnr = t.tcnr) AND (e.enr = t.tenr)))]`
	srcDisjunctiveDays = `[<e.ename> OF EACH e IN employees:
	SOME t IN timetable (((t.tday = monday) OR (t.tday = friday)) AND (e.enr = t.tenr))]`
	srcAllNo1977 = `[<e.ename> OF EACH e IN employees: (e.estatus = professor)
	AND ALL p IN papers ((p.pyear <> 1977) OR (e.enr <> p.penr))]`
	srcProfessors = `[<e.ename> OF EACH e IN employees: (e.estatus = professor)]`
)

// paperMixQueries is the paper's own evaluation: the six Figure 1
// shapes, each under the static and the cost-based planner.
func paperMixQueries() []query {
	var qs []query
	for _, t := range []struct{ name, src string }{
		{"sample-2.1", srcSample21},
		{"selective-equi-join", srcSelectiveEquiJoin},
		{"three-way-join", srcThreeWayJoin},
		{"some-nested", srcSomeNested},
		{"disjunctive-days", srcDisjunctiveDays},
		{"all-no-1977-papers", srcAllNo1977},
	} {
		qs = append(qs, query{tmpl: t.name, src: t.src}, query{tmpl: t.name, src: t.src, cost: true})
	}
	return qs
}

// adhocShapes are the eight templates of adhoc_compile_mem: {lo} and
// {hi} bound the first free variable's key, {year} is a paper year.
var adhocShapes = []struct{ name, src string }{
	{"monadic-professors", `[<e.ename> OF EACH e IN employees: (e.estatus = professor) AND (e.enr >= {lo}) AND (e.enr <= {hi})]`},
	{"monadic-range-scan", `[<t.tcnr, t.troom> OF EACH t IN timetable: (t.tenr >= {lo}) AND (t.tenr <= {hi})]`},
	{"sample-2.1", `[<e.ename> OF EACH e IN employees: (e.estatus = professor) AND (e.enr >= {lo}) AND (e.enr <= {hi})
	AND (ALL p IN papers ((p.pyear <> {year}) OR (e.enr <> p.penr))
	 OR SOME c IN courses ((c.clevel <= sophomore)
		AND SOME t IN timetable ((c.cnr = t.tcnr) AND (e.enr = t.tenr))))]`},
	{"selective-equi-join", `[<c.cnr, t.tenr, t.tday> OF EACH c IN courses, EACH t IN timetable:
	(c.clevel <= sophomore) AND (c.cnr = t.tcnr) AND (t.tenr >= {lo}) AND (t.tenr <= {hi})]`},
	{"three-way-join", `[<e.ename, c.cnr> OF EACH e IN employees, EACH c IN courses, EACH t IN timetable:
	(e.estatus = professor) AND (c.clevel <= sophomore) AND (e.enr = t.tenr) AND (c.cnr = t.tcnr)
	AND (e.enr >= {lo}) AND (e.enr <= {hi})]`},
	{"some-nested", `[<e.ename> OF EACH e IN employees: (e.enr >= {lo}) AND (e.enr <= {hi}) AND
	SOME c IN courses ((c.clevel <= sophomore)
		AND SOME t IN timetable ((c.cnr = t.tcnr) AND (e.enr = t.tenr)))]`},
	{"disjunctive-days", `[<e.ename> OF EACH e IN employees: (e.enr >= {lo}) AND (e.enr <= {hi}) AND
	SOME t IN timetable (((t.tday = monday) OR (t.tday = friday)) AND (e.enr = t.tenr))]`},
	{"all-no-1977-papers", `[<e.ename> OF EACH e IN employees: (e.estatus = professor) AND (e.enr >= {lo}) AND (e.enr <= {hi})
	AND ALL p IN papers ((p.pyear <> {year}) OR (e.enr <> p.penr))]`},
}

// adhocTexts is how many distinct query texts adhoc_compile_mem draws
// from: 8x the default 64-entry plan cache, so about one draw in eight
// hits.
const adhocTexts = 512

// adhocQueries renders adhocTexts distinct texts over the eight shapes
// with seeded constants. n is the employee count.
func adhocQueries(rng *rand.Rand, n int) []query {
	seen := make(map[string]bool, adhocTexts)
	qs := make([]query, 0, adhocTexts)
	for i := 0; len(qs) < adhocTexts; i++ {
		sh := adhocShapes[i%len(adhocShapes)]
		lo := 1 + rng.Intn(n*2/5)
		hi := n*3/5 + rng.Intn(n*2/5) + 1
		year := 1960 + rng.Intn(40)
		src := strings.NewReplacer("{lo}", strconv.Itoa(lo), "{hi}", strconv.Itoa(hi), "{year}", strconv.Itoa(year)).Replace(sh.src)
		if seen[src] {
			continue
		}
		seen[src] = true
		qs = append(qs, query{tmpl: sh.name, src: src})
	}
	return qs
}

// bandScanSrc is BenchmarkBatchScan's ten-predicate schedule-window
// scan over timetable, its narrow employee band starting at lo.
func bandScanSrc(n, lo int) string {
	lecture := func(k int) int { return 8000900 + k*100000 }
	return fmt.Sprintf(`[<t.tcnr, t.troom> OF EACH t IN timetable:
	(t.tenr >= %d) AND (t.tenr < %d) AND (t.ttime >= %d) AND (t.ttime < %d)
	AND (t.tenr >= %d) AND (t.tenr < %d) AND (t.ttime >= %d) AND (t.ttime < %d)
	AND (t.tenr >= %d) AND (t.tenr < %d)]`,
		n/50, n-n/50, lecture(5), lecture(95),
		n/10, n-n/10, lecture(10), lecture(90),
		lo, lo+max(n/250, 1))
}

// scanVariants is how many seeded constant sets each selective scan is
// prepared with.
const scanVariants = 8

// selectiveScanQueries are the three scans of selective_scan_disk; the
// two band scans come in scanVariants seeded positions each.
func selectiveScanQueries(rng *rand.Rand, n int) []query {
	var qs []query
	for i := 0; i < scanVariants; i++ {
		lo := n/10 + rng.Intn(n-n/5-n/250)
		qs = append(qs, query{tmpl: "band-scan-timetable", src: bandScanSrc(n, lo)})
	}
	for i := 0; i < scanVariants; i++ {
		lo := 1 + rng.Intn(n-n/100)
		qs = append(qs, query{tmpl: "title-scan-papers", src: fmt.Sprintf(
			`[<p.ptitle> OF EACH p IN papers: (p.penr >= %d) AND (p.penr < %d)]`, lo, lo+max(n/100, 1))})
	}
	return append(qs, query{tmpl: "monadic-professors", src: srcProfessors})
}

// wideFetchQueries are the two string-bearing joins of
// wide_fetch_loopback, each returning one row per joined tuple.
func wideFetchQueries() []query {
	return []query{
		{tmpl: "employees-timetable", src: `[<e.ename, t.troom, t.tcnr, t.tday> OF EACH e IN employees, EACH t IN timetable: (e.enr = t.tenr)]`},
		{tmpl: "employees-papers", src: `[<e.ename, p.ptitle> OF EACH e IN employees, EACH p IN papers: (e.enr = p.penr)]`},
	}
}

// mixedReadQueries are the reader's statements on
// mixed_rw_disk_loopback. The writer only touches papers with
// pyear <> 1977, so both results stay fixed while the writer runs and
// every read can be checked.
func mixedReadQueries() []query {
	return []query{
		{tmpl: "sample-2.1", src: srcSample21},
		{tmpl: "three-way-join", src: srcThreeWayJoin},
	}
}

// writeOp is one single-row mutation of papers: an insert of a fresh
// <ptitle, penr> key, or the delete of one inserted earlier.
type writeOp struct {
	del   bool
	title string
	penr  int
	year  int
}

// userBytes is the encoded size of the written tuple.
func (w writeOp) userBytes() int64 {
	return int64(len(value.EncodeKey([]value.Value{value.Int(int64(w.penr)), value.Int(int64(w.year)), value.String_(w.title)})))
}

func (w writeOp) src() string {
	if w.del {
		return fmt.Sprintf("papers :- [<'%s', %d>];", w.title, w.penr)
	}
	return fmt.Sprintf("papers :+ [<%d, %d, '%s'>];", w.penr, w.year, w.title)
}

// writeOps renders count writer operations: 80 % single-row inserts of
// fresh keys, 20 % deletes of a key inserted earlier in the list. The
// prefix keeps keys of different writers (and of the load script)
// disjoint.
func writeOps(rng *rand.Rand, n, count int, prefix string) []writeOp {
	ops := make([]writeOp, 0, count)
	var live []writeOp
	for i := 0; len(ops) < count; i++ {
		if len(live) > 0 && rng.Intn(5) == 0 {
			j := rng.Intn(len(live))
			w := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			w.del = true
			ops = append(ops, w)
			continue
		}
		year := 1960 + rng.Intn(40)
		if year == 1977 {
			year = 1976
		}
		w := writeOp{title: fmt.Sprintf("%s%07d", prefix, i), penr: 1 + rng.Intn(n), year: year}
		live = append(live, w)
		ops = append(ops, w)
	}
	return ops
}

// opOrder is a client's closed-loop schedule: a seeded permutation of
// the statement indexes, walked round-robin.
func opOrder(rng *rand.Rand, stmts, length int) []int {
	order := make([]int, 0, length)
	for len(order) < length {
		order = append(order, rng.Perm(stmts)...)
	}
	return order[:length]
}

// uniformOrder draws length statement indexes uniformly, the ad-hoc
// workload's schedule.
func uniformOrder(rng *rand.Rand, stmts, length int) []int {
	order := make([]int, length)
	for i := range order {
		order[i] = rng.Intn(stmts)
	}
	return order
}

// opListHash fingerprints a generated workload, so tests can assert
// that a seed determines its inputs.
func opListHash(qs []query, orders [][]int, writes []writeOp) uint64 {
	h := fnv.New64a()
	for _, q := range qs {
		fmt.Fprintf(h, "%s|%s|%v\n", q.tmpl, q.src, q.cost)
	}
	for _, o := range orders {
		fmt.Fprintln(h, o)
	}
	for _, w := range writes {
		fmt.Fprintln(h, w.src())
	}
	return h.Sum64()
}
