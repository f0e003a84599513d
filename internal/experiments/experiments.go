// Package experiments regenerates the paper's evaluation artifacts.
// The 1982 paper reports no quantitative tables; its evaluation is the
// sample database (Figure 1), the auxiliary structures (Figure 2),
// Lemma 1's empty-relation cases, and the worked Examples 2.1–4.7 that
// demonstrate the four optimization strategies. Each experiment below
// reproduces one of those artifacts with measured counters — scans,
// intermediate-structure sizes, reference tuples — plus wall-clock time,
// which is what the paper's cost arguments are about.
//
// Each experiment prints the paper's claim above its measured table;
// `go run ./cmd/experiments` regenerates them all. No run is committed
// yet: ROADMAP.md ("One ruler…", part (c)) plans to commit the
// machine-independent columns as a golden ledger.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"pascalr/internal/baseline"
	"pascalr/internal/calculus"
	"pascalr/internal/engine"
	"pascalr/internal/normalize"
	"pascalr/internal/optimizer"
	"pascalr/internal/parser"
	"pascalr/internal/relation"
	"pascalr/internal/schema"
	"pascalr/internal/stats"
	"pascalr/internal/value"
	"pascalr/internal/workload"
)

// Experiment is one runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, scales []int) error
}

// All returns the experiments in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Figure 1: sample database generation", runE1},
		{"E2", "Figure 2: auxiliary structures of the sample query", runE2},
		{"E3", "Example 2.1->2.2: standardization", runE3},
		{"E4", "Lemma 1: empty-relation adaptation", runE4},
		{"E5", "Example 3.1: references and selected variables", runE5},
		{"E6", "Example 3.2: the three evaluation phases", runE6},
		{"E7", "Strategy 1: one scan per relation (Examples 4.1/4.3)", runE7},
		{"E8", "Strategy 2: restricted indirect joins (Example 4.2)", runE8},
		{"E9", "Strategy 3: extended range expressions (Examples 4.4/4.5)", runE9},
		{"E10", "Strategy 4: collection-phase quantifiers (Examples 4.6/4.7)", runE10},
		{"E11", "Strategy ladder: naive vs S0..S1234 (section 4 headline)", runE11},
		{"E12", "Section 4.4 value-list refinements", runE12},
		{"E13", "Permanent access paths (sections 3.2/5 outlook)", runE13},
		{"E14", "CNF range extension (section 4.3 outlook)", runE14},
		{"E15", "Cost-based combination phase (section 5 outlook)", runE15},
	}
}

// Run executes the named experiment ("all" runs every one).
func Run(id string, w io.Writer, scales []int) error {
	if strings.EqualFold(id, "all") {
		for _, e := range All() {
			fmt.Fprintf(w, "==== %s: %s ====\n", e.ID, e.Title)
			if err := e.Run(w, scales); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			fmt.Fprintf(w, "==== %s: %s ====\n", e.ID, e.Title)
			return e.Run(w, scales)
		}
	}
	return fmt.Errorf("experiments: unknown experiment %s", id)
}

// table is a tiny aligned-text table builder.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.rows = append(t.rows, row)
}

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.header)
	seps := make([]string, len(t.header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
}

// checkedSample builds the university database at a scale and the
// checked Example 2.1 selection against it.
func checkedSample(scale int) (*relation.DB, *calculus.Selection, *calculus.Info, error) {
	db, err := workload.University(workload.DefaultConfig(scale))
	if err != nil {
		return nil, nil, nil, err
	}
	sel, info, err := calculus.Check(workload.SampleSelection(), db.Catalog())
	if err != nil {
		return nil, nil, nil, err
	}
	return db, sel, info, nil
}

// refTupleBudget caps the combination phase: the unoptimized strategies
// blow up combinatorially with scale (which is the paper's very point),
// so rows that exceed the budget report that instead of running for
// hours.
const refTupleBudget = 8_000_000

func evalWith(db *relation.DB, sel *calculus.Selection, info *calculus.Info, strat engine.Strategy) ([][]value.Value, *stats.Counters, time.Duration, error) {
	st := &stats.Counters{}
	eng := engine.New(db, st)
	start := time.Now()
	res, err := eng.Eval(context.Background(), sel, info, engine.Options{Strategies: strat, MaxRefTuples: refTupleBudget})
	return res, st, time.Since(start), err
}

// overBudget reports whether an evaluation error was the budget guard.
func overBudget(err error) bool {
	return err != nil && strings.Contains(err.Error(), "exceeded")
}

// ---------------------------------------------------------------------
// E1 — Figure 1: sample database generation.

func runE1(w io.Writer, scales []int) error {
	fmt.Fprintln(w, "paper: Figure 1 declares the four-relation university database;")
	fmt.Fprintln(w, "here: generated synthetically at increasing scale (see package internal/workload).")
	t := &table{header: []string{"scale", "employees", "papers", "courses", "timetable", "load"}}
	for _, n := range scales {
		start := time.Now()
		db, err := workload.University(workload.DefaultConfig(n))
		if err != nil {
			return err
		}
		el := time.Since(start)
		t.add(n,
			db.MustRelation("employees").Len(),
			db.MustRelation("papers").Len(),
			db.MustRelation("courses").Len(),
			db.MustRelation("timetable").Len(),
			el.Round(time.Microsecond))
	}
	t.write(w)
	return nil
}

// ---------------------------------------------------------------------
// E2 — Figure 2: the auxiliary structures built for the sample query.

func runE2(w io.Writer, scales []int) error {
	fmt.Fprintln(w, "paper: Figure 2 declares single lists (sl_prof, sl_p77, sl_csoph),")
	fmt.Fprintln(w, "indirect joins (ij_c_t, ij_e_t, ij_e_p) and indexes (ind_t_enr,")
	fmt.Fprintln(w, "ind_t_cnr, ind_p_enr); here: their measured sizes when collecting")
	fmt.Fprintln(w, "the sample query under strategy 1.")
	for _, n := range scales {
		db, sel, info, err := checkedSample(n)
		if err != nil {
			return err
		}
		_, st, _, err := evalWith(db, sel, info, engine.S1)
		if overBudget(err) {
			fmt.Fprintf(w, "scale %d: combination exceeds the %d ref-tuple budget (collection sizes below)\n", n, refTupleBudget)
		} else if err != nil {
			return err
		} else {
			fmt.Fprintf(w, "scale %d:\n", n)
		}
		t := &table{header: []string{"structure", "kind", "size"}}
		structs := append([]stats.StructStat(nil), st.Structures...)
		sort.Slice(structs, func(i, j int) bool {
			if structs[i].Kind != structs[j].Kind {
				return structs[i].Kind < structs[j].Kind
			}
			return structs[i].Name < structs[j].Name
		})
		for _, s := range structs {
			if s.Kind == "refrel" {
				continue // combination phase; E6 covers it
			}
			t.add(s.Name, s.Kind, s.Size)
		}
		t.write(w)
	}
	return nil
}

// ---------------------------------------------------------------------
// E3 — standardization of Example 2.1 into Example 2.2.

func runE3(w io.Writer, scales []int) error {
	fmt.Fprintln(w, "paper: Example 2.2 shows the sample query in prenex normal form with")
	fmt.Fprintln(w, "a three-conjunction DNF matrix under the prefix ALL p, SOME c, SOME t.")
	db, sel, _, err := checkedSample(10)
	if err != nil {
		return err
	}
	_ = db
	start := time.Now()
	sf, err := normalize.Standardize(sel, normalize.Options{})
	if err != nil {
		return err
	}
	el := time.Since(start)
	t := &table{header: []string{"measure", "value"}}
	var prefix []string
	for _, q := range sf.Prefix {
		prefix = append(prefix, q.String())
	}
	t.add("prefix", strings.Join(prefix, ", "))
	t.add("conjunctions", len(sf.Matrix))
	t.add("join terms", sf.NumTerms())
	t.add("standardization time", el.Round(time.Microsecond))
	t.write(w)
	fmt.Fprintf(w, "standard form:\n%s", sf)
	return nil
}

// ---------------------------------------------------------------------
// E4 — Lemma 1: empty-relation adaptation.

func runE4(w io.Writer, scales []int) error {
	fmt.Fprintln(w, "paper: with papers = [] the standard form must be adapted to return")
	fmt.Fprintln(w, "exactly the professors; the unadapted normal form would return all")
	fmt.Fprintln(w, "employees (Example 2.2). Rows compare the oracle with the engine.")
	scale := 20
	if len(scales) > 0 {
		scale = scales[0]
	}
	t := &table{header: []string{"condition", "employees", "professors", "oracle", "S0", "S1+S2+S3+S4"}}
	for _, cond := range []string{"papers=[]", "courses=[]", "papers=courses=[]"} {
		db, sel, info, err := checkedSample(scale)
		if err != nil {
			return err
		}
		if strings.Contains(cond, "papers") {
			if err := db.MustRelation("papers").Assign(nil); err != nil {
				return err
			}
		}
		if strings.Contains(cond, "courses") {
			if err := db.MustRelation("courses").Assign(nil); err != nil {
				return err
			}
		}
		profs := 0
		if err := db.MustRelation("employees").Scan(db.Stats(), func(_ value.Value, tup []value.Value) bool {
			if tup[2].EnumOrd() == workload.StatusProfessor {
				profs++
			}
			return true
		}); err != nil {
			return err
		}
		oracle, err := baseline.Eval(sel, info, db)
		if err != nil {
			return err
		}
		r0, _, _, err := evalWith(db, sel, info, 0)
		if err != nil {
			return err
		}
		rAll, _, _, err := evalWith(db, sel, info, engine.AllStrategies)
		if err != nil {
			return err
		}
		t.add(cond, db.MustRelation("employees").Len(), profs, len(oracle), len(r0), len(rAll))
	}
	t.write(w)
	return nil
}

// ---------------------------------------------------------------------
// E5 — Example 3.1: references and selected variables.

func runE5(w io.Writer, scales []int) error {
	fmt.Fprintln(w, "paper: Example 3.1 maintains a primary index enrindex associating key")
	fmt.Fprintln(w, "values with references @employees[enr]; here: selected-variable lookup")
	fmt.Fprintln(w, "cost vs a full scan, and stale-reference detection after deletion.")
	t := &table{header: []string{"scale", "lookups", "lookup time", "scan time", "stale detected"}}
	for _, n := range scales {
		db, err := workload.University(workload.DefaultConfig(n))
		if err != nil {
			return err
		}
		employees := db.MustRelation("employees")
		// rel[keyval] lookups for every key.
		start := time.Now()
		found := 0
		for i := 1; i <= n; i++ {
			_, ok, err := employees.Lookup([]value.Value{value.Int(int64(i))})
			if err != nil {
				return err
			}
			if ok {
				found++
			}
		}
		lookupTime := time.Since(start)
		// The equivalent via full scans.
		start = time.Now()
		for i := 1; i <= n; i++ {
			want := int64(i)
			if err := employees.Scan(nil, func(_ value.Value, tup []value.Value) bool {
				return tup[0].AsInt() != want
			}); err != nil {
				return err
			}
		}
		scanTime := time.Since(start)
		// Stale reference detection.
		ref, _, err := employees.Lookup([]value.Value{value.Int(1)})
		if err != nil {
			return err
		}
		if _, err := employees.Delete([]value.Value{value.Int(1)}); err != nil {
			return err
		}
		_, err = employees.Deref(ref)
		stale := err != nil
		t.add(n, found, lookupTime.Round(time.Microsecond), scanTime.Round(time.Microsecond), stale)
	}
	t.write(w)
	return nil
}

// ---------------------------------------------------------------------
// E6 — Example 3.2: the three phases on the csoph/timetable fragment.

func runE6(w io.Writer, scales []int) error {
	fmt.Fprintln(w, "paper: Example 3.2 evaluates (c.clevel <= sophomore) AND (c.cnr =")
	fmt.Fprintln(w, "t.tcnr) via sl_csoph, ind_t_cnr, ij_c_t and a combination refrel;")
	fmt.Fprintln(w, "here: measured sizes of each phase's output.")
	t := &table{header: []string{"scale", "courses", "timetable", "single list", "index", "indirect join", "result", "time"}}
	for _, n := range scales {
		db, err := workload.University(workload.DefaultConfig(n))
		if err != nil {
			return err
		}
		sel, info, err := calculus.Check(workload.SubexprSelection(), db.Catalog())
		if err != nil {
			return err
		}
		res, st, el, err := evalWith(db, sel, info, engine.S1)
		if err != nil {
			return err
		}
		sl, ix, ij := 0, 0, 0
		for _, s := range st.Structures {
			switch s.Kind {
			case "single-list":
				sl += s.Size
			case "index":
				ix += s.Size
			case "indirect-join":
				ij += s.Size
			}
		}
		t.add(n, db.MustRelation("courses").Len(), db.MustRelation("timetable").Len(),
			sl, ix, ij, len(res), el.Round(time.Microsecond))
	}
	t.write(w)
	return nil
}

// ---------------------------------------------------------------------
// E7 — strategy 1: scan counts.

func runE7(w io.Writer, scales []int) error {
	fmt.Fprintln(w, "paper: \"each relation is accessed as many times as variables ranging")
	fmt.Fprintln(w, "over it occur in (different) join terms\" vs \"each range relation is")
	fmt.Fprintln(w, "read no more than once\" under strategy 1 (Examples 4.1/4.3).")
	t := &table{header: []string{"scale", "strategy", "total scans", "employees", "papers", "courses", "timetable", "tuples read", "time"}}
	for _, n := range scales {
		for _, strat := range []engine.Strategy{0, engine.S1} {
			db, sel, info, err := checkedSample(n)
			if err != nil {
				return err
			}
			_, st, el, err := evalWith(db, sel, info, strat)
			if overBudget(err) {
				t.add(n, strat, st.TotalScans(),
					st.BaseScans["employees"], st.BaseScans["papers"],
					st.BaseScans["courses"], st.BaseScans["timetable"],
					st.TuplesRead, "> budget")
				continue
			}
			if err != nil {
				return err
			}
			t.add(n, strat, st.TotalScans(),
				st.BaseScans["employees"], st.BaseScans["papers"],
				st.BaseScans["courses"], st.BaseScans["timetable"],
				st.TuplesRead, el.Round(time.Microsecond))
		}
	}
	t.write(w)
	return nil
}

// ---------------------------------------------------------------------
// E8 — strategy 2: monadic terms restrict indirect joins.

func runE8(w io.Writer, scales []int) error {
	fmt.Fprintln(w, "paper: Example 4.2 evaluates the csoph conjunction in one step; the")
	fmt.Fprintln(w, "monadic term restricts ij_c_t so single lists need not be built and")
	fmt.Fprintln(w, "the indirect join shrinks with the selectivity of clevel<=sophomore.")
	t := &table{header: []string{"scale", "soph frac", "strategy", "ij tuples", "single lists", "ref tuples", "time"}}
	scale := 60
	if len(scales) > 0 {
		scale = scales[len(scales)-1]
	}
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.9} {
		for _, strat := range []engine.Strategy{engine.S1, engine.S1 | engine.S2} {
			cfg := workload.DefaultConfig(scale)
			cfg.SophFrac = frac
			db, err := workload.University(cfg)
			if err != nil {
				return err
			}
			sel, info, err := calculus.Check(workload.SampleSelection(), db.Catalog())
			if err != nil {
				return err
			}
			_, st, el, err := evalWith(db, sel, info, strat)
			if err != nil && !overBudget(err) {
				return err
			}
			ij, sl := 0, 0
			for _, s := range st.Structures {
				switch s.Kind {
				case "indirect-join":
					ij += s.Size
				case "single-list":
					sl++
				}
			}
			if overBudget(err) {
				t.add(scale, frac, strat, ij, sl, st.RefTuples, "> budget")
			} else {
				t.add(scale, frac, strat, ij, sl, st.RefTuples, el.Round(time.Microsecond))
			}
		}
	}
	t.write(w)
	return nil
}

// ---------------------------------------------------------------------
// E9 — strategy 3: extended range expressions.

func runE9(w io.Writer, scales []int) error {
	fmt.Fprintln(w, "paper: Example 4.5 extends the ranges of e, p, and c; one conjunction")
	fmt.Fprintln(w, "disappears and the indirect joins shrink considerably, with the most")
	fmt.Fprintln(w, "profit from the universally quantified variable p.")
	db, sel, _, err := checkedSample(10)
	if err != nil {
		return err
	}
	_ = db
	sf, err := normalize.Standardize(sel, normalize.Options{})
	if err != nil {
		return err
	}
	extracted, moved := optimizer.ExtractRanges(sf)
	t := &table{header: []string{"measure", "before S3", "after S3"}}
	t.add("conjunctions", len(sf.Matrix), len(extracted.Matrix))
	t.add("matrix join terms", sf.NumTerms(), extracted.NumTerms())
	extendedRanges := 0
	for _, q := range extracted.Prefix {
		if q.Range.Extended() {
			extendedRanges++
		}
	}
	for _, d := range extracted.Free {
		if d.Range.Extended() {
			extendedRanges++
		}
	}
	t.add("extended ranges", 0, extendedRanges)
	t.add("terms moved to ranges", "-", moved)
	t.write(w)

	t2 := &table{header: []string{"scale", "strategy", "ij tuples", "ref tuples", "peak refrel", "time"}}
	for _, n := range scales {
		for _, strat := range []engine.Strategy{engine.S1 | engine.S2, engine.S1 | engine.S2 | engine.S3} {
			db, sel, info, err := checkedSample(n)
			if err != nil {
				return err
			}
			_, st, el, err := evalWith(db, sel, info, strat)
			if err != nil && !overBudget(err) {
				return err
			}
			ij := 0
			for _, s := range st.Structures {
				if s.Kind == "indirect-join" {
					ij += s.Size
				}
			}
			if overBudget(err) {
				t2.add(n, strat, ij, st.RefTuples, st.PeakRefTuples, "> budget")
			} else {
				t2.add(n, strat, ij, st.RefTuples, st.PeakRefTuples, el.Round(time.Microsecond))
			}
		}
	}
	t2.write(w)
	return nil
}

// ---------------------------------------------------------------------
// E10 — strategy 4: quantifier evaluation in the collection phase.

func runE10(w io.Writer, scales []int) error {
	fmt.Fprintln(w, "paper: Example 4.7 resolves all three quantifiers in the collection")
	fmt.Fprintln(w, "phase through the cset/tset/pset value-list cascade; the combination")
	fmt.Fprintln(w, "phase then handles only monadic restrictions of employees.")
	db, sel, _, err := checkedSample(10)
	if err != nil {
		return err
	}
	_ = db
	sf, err := normalize.Standardize(sel, normalize.Options{})
	if err != nil {
		return err
	}
	extracted, _ := optimizer.ExtractRanges(sf)
	x := optimizer.FromStandardForm(extracted)
	eliminated := optimizer.EliminateQuantifiers(x)
	t := &table{header: []string{"measure", "value"}}
	t.add("quantifiers before S4", len(extracted.Prefix))
	t.add("quantifiers eliminated", eliminated)
	t.add("quantifiers remaining", len(x.Prefix))
	t.add("value-list specs", len(x.Specs))
	t.write(w)

	t2 := &table{header: []string{"scale", "strategy", "ref tuples", "peak refrel", "probes", "time"}}
	for _, n := range scales {
		for _, strat := range []engine.Strategy{engine.S1 | engine.S2 | engine.S3, engine.AllStrategies} {
			db, sel, info, err := checkedSample(n)
			if err != nil {
				return err
			}
			_, st, el, err := evalWith(db, sel, info, strat)
			if err != nil && !overBudget(err) {
				return err
			}
			if overBudget(err) {
				t2.add(n, strat, st.RefTuples, st.PeakRefTuples, st.IndexProbes, "> budget")
			} else {
				t2.add(n, strat, st.RefTuples, st.PeakRefTuples, st.IndexProbes, el.Round(time.Microsecond))
			}
		}
	}
	t2.write(w)
	return nil
}

// ---------------------------------------------------------------------
// E11 — the strategy ladder.

func runE11(w io.Writer, scales []int) error {
	fmt.Fprintln(w, "paper: section 4's overall claim — each strategy shifts work from the")
	fmt.Fprintln(w, "combination phase to the collection phase and reduces intermediate")
	fmt.Fprintln(w, "growth. naive = tuple substitution (\"queries evaluated directly as")
	fmt.Fprintln(w, "given by the user\").")
	t := &table{header: []string{"scale", "evaluator", "result", "total scans", "ref tuples", "peak refrel", "time"}}
	type entry struct {
		name  string
		strat engine.Strategy
		naive bool
	}
	ladder := []entry{
		{"naive", 0, true},
		{"S0", 0, false},
		{"S1", engine.S1, false},
		{"S1+S2", engine.S1 | engine.S2, false},
		{"S1+S2+S3", engine.S1 | engine.S2 | engine.S3, false},
		{"S1+S2+S3+S4", engine.AllStrategies, false},
	}
	for _, n := range scales {
		for _, e := range ladder {
			db, sel, info, err := checkedSample(n)
			if err != nil {
				return err
			}
			st := &stats.Counters{}
			db.SetStats(st)
			var res [][]value.Value
			start := time.Now()
			if e.naive {
				res, err = baseline.Eval(sel, info, db)
			} else {
				eng := engine.New(db, st)
				res, err = eng.Eval(context.Background(), sel, info, engine.Options{Strategies: e.strat, MaxRefTuples: refTupleBudget})
			}
			el := time.Since(start)
			if overBudget(err) {
				t.add(n, e.name, "-", st.TotalScans(), st.RefTuples, st.PeakRefTuples, "> budget")
				continue
			}
			if err != nil {
				return err
			}
			t.add(n, e.name, len(res), st.TotalScans(), st.RefTuples, st.PeakRefTuples, el.Round(time.Microsecond))
		}
	}
	t.write(w)
	return nil
}

// ---------------------------------------------------------------------
// E12 — the section 4.4 value-list refinements.

func runE12(w io.Writer, scales []int) error {
	fmt.Fprintln(w, "paper: for < and <= only one component value of vnrel must be stored")
	fmt.Fprintln(w, "(the maximum for SOME, the minimum for ALL); for = with ALL and <>")
	fmt.Fprintln(w, "with SOME at most one value matters. Stored size vs distinct values:")
	scale := 200
	if len(scales) > 0 {
		scale = scales[len(scales)-1] * 4
	}
	db := relation.NewDB()
	dom := schema.IntType("dom", 0, 1<<30)
	outer := db.MustCreate(schema.MustRelSchema("outer", []schema.Column{
		{Name: "k", Type: dom}, {Name: "v", Type: dom},
	}, []string{"k"}))
	inner := db.MustCreate(schema.MustRelSchema("inner", []schema.Column{
		{Name: "k", Type: dom}, {Name: "v", Type: dom},
	}, []string{"k"}))
	for i := 0; i < scale; i++ {
		if _, err := outer.Insert([]value.Value{value.Int(int64(i)), value.Int(int64(i % 97))}); err != nil {
			return err
		}
		if _, err := inner.Insert([]value.Value{value.Int(int64(i)), value.Int(int64(i % 89))}); err != nil {
			return err
		}
	}
	t := &table{header: []string{"quantifier", "op", "distinct values", "stored", "result", "time"}}
	for _, c := range []struct {
		q  string
		op string
	}{
		{"SOME", "<"}, {"ALL", "<"}, {"SOME", "<="}, {"ALL", ">="},
		{"ALL", "="}, {"SOME", "<>"}, {"SOME", "="}, {"ALL", "<>"},
	} {
		src := fmt.Sprintf(`[<o.k> OF EACH o IN outer: %s i IN inner (o.v %s i.v)]`, c.q, c.op)
		sel, err := parser.ParseSelection(src)
		if err != nil {
			return err
		}
		checked, info, err := calculus.Check(sel, db.Catalog())
		if err != nil {
			return err
		}
		st := &stats.Counters{}
		db.SetStats(st)
		eng := engine.New(db, st)
		start := time.Now()
		res, err := eng.Eval(context.Background(), checked, info, engine.Options{Strategies: engine.AllStrategies})
		el := time.Since(start)
		if err != nil {
			return err
		}
		stored, distinct := -1, 89
		for _, s := range st.Structures {
			if s.Kind == "value-list" {
				stored = s.Size
			}
		}
		t.add(c.q, c.op, distinct, stored, len(res), el.Round(time.Microsecond))
	}
	t.write(w)
	return nil
}

// ---------------------------------------------------------------------
// E13 — permanent access paths. The paper notes the index-building step
// "can be omitted, if permanent indexes exist" (section 3.2) and names
// integration with permanent access paths as ongoing research (section
// 5). With a maintained index on courses.cnr, the courses scan of a
// pure join disappears entirely.

func runE13(w io.Writer, scales []int) error {
	fmt.Fprintln(w, "paper: the collection phase's first step (index creation) can be")
	fmt.Fprintln(w, "omitted when permanent indexes exist; a scan serving only an index")
	fmt.Fprintln(w, "build disappears.")
	join := &calculus.Selection{
		Proj: []calculus.Field{{Var: "c", Col: "ctitle"}, {Var: "t", Col: "tenr"}, {Var: "t", Col: "tday"}},
		Free: []calculus.Decl{
			{Var: "c", Range: &calculus.RangeExpr{Rel: "courses"}},
			{Var: "t", Range: &calculus.RangeExpr{Rel: "timetable"}},
		},
		Pred: &calculus.Cmp{
			L: calculus.Field{Var: "c", Col: "cnr"}, Op: value.OpEq,
			R: calculus.Field{Var: "t", Col: "tcnr"},
		},
	}
	t := &table{header: []string{"scale", "index on courses.cnr", "courses scans", "timetable scans", "probes", "result", "time"}}
	for _, n := range scales {
		for _, withIndex := range []bool{false, true} {
			db, err := workload.University(workload.DefaultConfig(n))
			if err != nil {
				return err
			}
			if withIndex {
				if _, err := db.MustRelation("courses").CreateIndex("cnr"); err != nil {
					return err
				}
			}
			checked, info, err := calculus.Check(join, db.Catalog())
			if err != nil {
				return err
			}
			res, st, el, err := evalWith(db, checked, info, engine.S1|engine.S2)
			if err != nil {
				return err
			}
			t.add(n, withIndex, st.BaseScans["courses"], st.BaseScans["timetable"],
				st.IndexProbes, len(res), el.Round(time.Microsecond))
		}
	}
	t.write(w)
	return nil
}

// ---------------------------------------------------------------------
// E15 — the cost-based combination phase. The paper's processor orders
// scans statically (prefix right-to-left, then declaration order) and
// names smarter ordering as ongoing work (section 5). With per-relation
// statistics the planner scans bulky relations first and probes with the
// restricted sides, shrinking indirect joins and reference relations.

func runE15(w io.Writer, scales []int) error {
	fmt.Fprintln(w, "paper: scan order is static (spec priority, prefix right-to-left,")
	fmt.Fprintln(w, "declaration order); here: a selectivity estimator drives a greedy")
	fmt.Fprintln(w, "cost-based ordering, so restricted variables probe instead of being")
	fmt.Fprintln(w, "probed and indirect joins shrink by the predicate selectivities.")
	t := &table{header: []string{"scale", "planner", "scan order", "probes", "comparisons", "ref tuples", "result", "time"}}
	for _, n := range scales {
		for _, costBased := range []bool{false, true} {
			cfg := workload.DefaultConfig(n)
			cfg.ProfFrac = 0.2
			cfg.SophFrac = 0.3
			db, err := workload.University(cfg)
			if err != nil {
				return err
			}
			sel, info, err := calculus.Check(workload.JoinHeavySelection(), db.Catalog())
			if err != nil {
				return err
			}
			// Statistics are collected once, outside the timed region —
			// they amortize across a query workload.
			est := db.Analyze()
			st := &stats.Counters{}
			eng := engine.New(db, st)
			start := time.Now()
			res, err := eng.Eval(context.Background(), sel, info, engine.Options{
				Strategies: engine.S1 | engine.S2, MaxRefTuples: refTupleBudget,
				CostBased: costBased, Estimator: est,
			})
			el := time.Since(start)
			planner := "static"
			if costBased {
				planner = "cost-based"
			}
			if overBudget(err) {
				t.add(n, planner, strings.Join(st.PlanOrder, ">"), st.IndexProbes, st.Comparisons, st.RefTuples, "-", "> budget")
				continue
			}
			if err != nil {
				return err
			}
			t.add(n, planner, strings.Join(st.PlanOrder, ">"), st.IndexProbes, st.Comparisons,
				st.RefTuples, len(res), el.Round(time.Microsecond))
		}
	}
	t.write(w)
	return nil
}

// ---------------------------------------------------------------------
// E14 — the CNF range extension the paper proposes as future work in
// section 4.3: ranges narrow by the OR of per-conjunction monadic
// restrictions, which plain extraction cannot move.

func runE14(w io.Writer, scales []int) error {
	fmt.Fprintln(w, "paper: \"the use of the more general conjunctive normal form is")
	fmt.Fprintln(w, "expected to improve further the efficiency of the system\" (4.3).")
	fmt.Fprintln(w, "Query: employees who teach on Monday or on Friday; the day tests")
	fmt.Fprintln(w, "land in different conjunctions, so only the disjunctive (CNF) form")
	fmt.Fprintln(w, "narrows timetable's range — the index side of the join shrinks.")
	t := &table{header: []string{"scale", "strategy", "ij tuples", "ref tuples", "tuples read", "time"}}
	for _, n := range scales {
		for _, strat := range []engine.Strategy{engine.S1 | engine.S2 | engine.S3,
			engine.S1 | engine.S2 | engine.S3 | engine.SCNF} {
			db, err := workload.University(workload.DefaultConfig(n))
			if err != nil {
				return err
			}
			sel, info, err := calculus.Check(workload.DisjunctiveSelection(), db.Catalog())
			if err != nil {
				return err
			}
			_, st, el, err := evalWith(db, sel, info, strat)
			if err != nil {
				return err
			}
			ij := 0
			for _, s := range st.Structures {
				if s.Kind == "indirect-join" {
					ij += s.Size
				}
			}
			t.add(n, strat, ij, st.RefTuples, st.TuplesRead, el.Round(time.Microsecond))
		}
	}
	t.write(w)
	return nil
}
