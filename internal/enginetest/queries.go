package enginetest

// QueryTest is one differential test case: a calculus query in the
// paper's concrete syntax, evaluated against the university schema of
// workload.DefineSchema (employees, papers, courses, timetable).
//
// To add a query: append an entry here and run `go test -update` once to
// add its lines to testdata/counters.golden. The harness runs it under
// all 32 strategy combinations × {static, uniform, histogram} planning
// against every workload database (populated, skewed, and the
// empty-relation variants) and compares each result with the
// tuple-substitution baseline.
type QueryTest struct {
	Name string
	Src  string
}

// UniversityQueries is the core differential table over the Figure 1
// schema. It covers monadic restriction, equi- and inequality joins,
// multi-way joins, both quantifiers, nesting, disjunction, negation via
// <>, self-joins over one relation, and contradictions.
var UniversityQueries = []QueryTest{
	{
		Name: "monadic-professors",
		Src:  `[<e.ename> OF EACH e IN employees: (e.estatus = professor)]`,
	},
	{
		Name: "monadic-range-scan",
		Src:  `[<c.cnr> OF EACH c IN courses: (c.cnr >= 1)]`,
	},
	{
		Name: "equi-join",
		Src:  `[<c.cnr, t.tenr> OF EACH c IN courses, EACH t IN timetable: (c.cnr = t.tcnr)]`,
	},
	{
		Name: "selective-equi-join",
		Src: `[<c.cnr, t.tenr, t.tday> OF EACH c IN courses, EACH t IN timetable:
			(c.clevel <= sophomore) AND (c.cnr = t.tcnr)]`,
	},
	{
		Name: "three-way-join",
		Src: `[<e.ename, c.cnr> OF EACH e IN employees, EACH c IN courses, EACH t IN timetable:
			(e.enr = t.tenr) AND (c.cnr = t.tcnr)]`,
	},
	{
		Name: "some-teaches",
		Src:  `[<e.ename> OF EACH e IN employees: SOME t IN timetable (e.enr = t.tenr)]`,
	},
	{
		Name: "some-nested",
		Src: `[<e.ename> OF EACH e IN employees:
			SOME c IN courses ((c.clevel <= sophomore)
				AND SOME t IN timetable ((c.cnr = t.tcnr) AND (e.enr = t.tenr)))]`,
	},
	{
		Name: "all-division",
		Src: `[<e.ename> OF EACH e IN employees:
			ALL c IN courses (SOME t IN timetable ((t.tenr = e.enr) AND (t.tcnr = c.cnr)))]`,
	},
	{
		Name: "all-no-1977-papers",
		Src: `[<e.ename> OF EACH e IN employees: (e.estatus = professor)
			AND ALL p IN papers ((p.pyear <> 1977) OR (e.enr <> p.penr))]`,
	},
	{
		Name: "sample-2.1",
		Src: `[<e.ename> OF EACH e IN employees:
			(e.estatus = professor)
			AND
			(ALL p IN papers ((p.pyear <> 1977) OR (e.enr <> p.penr))
			 OR
			 SOME c IN courses ((c.clevel <= sophomore)
				AND SOME t IN timetable ((c.cnr = t.tcnr) AND (e.enr = t.tenr))))]`,
	},
	{
		Name: "disjunctive-days",
		Src: `[<e.ename> OF EACH e IN employees:
			SOME t IN timetable (((t.tday = monday) OR (t.tday = friday)) AND (e.enr = t.tenr))]`,
	},
	{
		Name: "self-inequality-join",
		Src: `[<t.tenr, t.tcnr> OF EACH t IN timetable:
			SOME u IN timetable ((t.ttime < u.ttime) AND (t.tcnr = u.tcnr))]`,
	},
	{
		Name: "extended-range",
		Src: `[<c.cnr> OF EACH c IN [EACH x IN courses: (x.clevel <= sophomore)]:
			SOME t IN timetable (c.cnr = t.tcnr)]`,
	},
	{
		// Two variables probe one index column with different operators
		// (= and <), exercising the index's lazily derived equality map
		// and sorted copy — emission order must stay deterministic
		// whichever probe builds first.
		Name: "mixed-op-shared-index",
		Src: `[<c.cnr, e.enr> OF EACH c IN courses, EACH e IN employees, EACH t IN timetable:
			(c.cnr = t.tcnr) AND (e.enr < t.tcnr)]`,
	},
	{
		Name: "contradiction",
		Src:  `[<e.enr> OF EACH e IN employees: (e.estatus = professor) AND (e.estatus = student)]`,
	},
	{
		Name: "negated-join",
		Src: `[<e.ename> OF EACH e IN employees:
			NOT SOME t IN timetable (e.enr = t.tenr)]`,
	},
	// Strategy-4 specs over string and enum columns: =SOME is set
	// membership on strings, <>ALL non-membership. No two relations of
	// the Figure 1 schema share an enumeration type (and a quantifier
	// over the remaining variable's own relation is ineligible for
	// strategy 4), so the enum case filters the value-list scan on an
	// enum column and derives an integer bound (<SOME keeps the max).
	{
		Name: "string-membership",
		Src:  `[<c.cnr> OF EACH c IN courses: SOME p IN papers (c.ctitle = p.ptitle)]`,
	},
	{
		Name: "string-not-in",
		Src:  `[<c.cnr> OF EACH c IN courses: ALL p IN papers (c.ctitle <> p.ptitle)]`,
	},
	{
		Name: "enum-filtered-bound",
		Src: `[<e.ename> OF EACH e IN employees:
			SOME t IN timetable ((t.tday >= wednesday) AND (e.enr < t.tenr))]`,
	},
	// Monadic terms comparing a string column with a string constant,
	// on the free variable and (flipped) on the quantified one: the
	// collection phase filters both ranges with the string kernel.
	{
		Name: "string-constant-range",
		Src: `[<p.ptitle> OF EACH p IN papers: (p.ptitle < 'paper000030')
			AND SOME e IN employees ((e.enr = p.penr) AND ('emp000010' <= e.ename))]`,
	},
}
