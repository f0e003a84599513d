package enginetest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"pascalr/internal/baseline"
	"pascalr/internal/calculus"
	"pascalr/internal/engine"
	"pascalr/internal/parser"
	"pascalr/internal/relation"
	"pascalr/internal/value"
	"pascalr/internal/workload"
)

// windowQueries are the version-window oracle's queries: Example 2.1,
// whose ALL over papers the Lemma 1 fold removes while papers is empty,
// and a division over a source-level extended range, whose emptiness
// the fold decides by scanning courses.
var windowQueries = []string{
	universityQuery("sample-2.1"),
	`[<e.ename> OF EACH e IN employees:
		ALL c IN [EACH x IN courses: (x.clevel <= sophomore)]
			(SOME t IN timetable ((t.tenr = e.enr) AND (t.tcnr = c.cnr)))]`,
}

const (
	windowScale    = 6
	windowReaders  = 2
	windowReps     = 4
	windowWatchdog = 60 * time.Second
)

// windowMutation is one writer commit: an assignment of a relation's
// whole contents, so the replay applies exactly what the writer did.
type windowMutation struct {
	rel  string
	rows [][]value.Value
}

// TestVersionWindowOracle runs prepared plans of every strategy set ×
// {static, self-derived cost} planner × {memory, disk} backend while
// one writer keeps emptying and refilling papers, removing and
// restoring the courses the extended range selects, and adding and
// removing a professor. Every Eval and every drained Rows must equal
// the tuple-substitution baseline at some content version between the
// ones read before and after the execution, or fail with the retryable
// relation.ErrStale.
func TestVersionWindowOracle(t *testing.T) {
	for _, backend := range []struct {
		name string
		open func(*testing.T, int) *relation.DB
	}{{"memory", universityDB}, {"disk", diskDB}} {
		t.Run(backend.name, func(t *testing.T) {
			runVersionWindows(t, backend.name, backend.open(t, windowScale))
		})
	}
}

func runVersionWindows(t *testing.T, label string, db *relation.DB) {
	queries := make([]*calculus.Selection, len(windowQueries))
	infos := make([]*calculus.Info, len(windowQueries))
	for i, src := range windowQueries {
		queries[i], infos[i] = checkSrc(t, db, src)
	}

	// Each toggle alternates a relation between its starting contents
	// and another: papers empty, no course the extended range selects,
	// one more professor.
	courses := db.MustRelation("courses").Tuples()
	var upper [][]value.Value
	for _, c := range courses {
		if c[1].EnumOrd() > workload.LevelSophomore {
			upper = append(upper, c)
		}
	}
	if len(upper) == len(courses) {
		t.Fatalf("%s: no course the extended range selects", label)
	}
	employees := db.MustRelation("employees").Tuples()
	prof := []value.Value{value.Int(windowScale + 1), value.String_("newprof"), value.Enum("statustype", workload.StatusProfessor)}
	toggles := []struct {
		rel  string
		alts [2][][]value.Value
	}{
		{"papers", [2][][]value.Value{db.MustRelation("papers").Tuples(), nil}},
		{"courses", [2][][]value.Value{courses, upper}},
		{"employees", [2][][]value.Value{employees, append(slices.Clone(employees), prof)}},
	}

	versions := []uint64{db.Version()}
	var log []windowMutation
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(1))
		state := make([]int, len(toggles))
		for {
			select {
			case <-stop:
				return
			default:
			}
			i := rng.Intn(len(toggles))
			state[i] ^= 1
			m := windowMutation{toggles[i].rel, toggles[i].alts[state[i]]}
			if err := db.MustRelation(m.rel).Assign(m.rows); err != nil {
				t.Errorf("%s: writer: %v", label, err)
				return
			}
			versions = append(versions, db.Version())
			log = append(log, m)
			// Paced so that a window spans a few commits, not hundreds:
			// the replay asks the oracle once per state a window needs.
			time.Sleep(50 * time.Microsecond)
		}
	}()

	stopWriter := sync.OnceFunc(func() {
		close(stop)
		<-writerDone
	})
	defer stopWriter()
	var mu sync.Mutex
	var windows []Window
	for _, strat := range StrategySets() {
		for _, cost := range []bool{false, true} {
			config := fmt.Sprintf("%s cost=%v", strat, cost)
			if !runWindowConfig(t, label+" ["+config+"]", db, queries, infos, engine.Options{Strategies: strat, CostBased: cost}, func(w Window) {
				w.Label = config
				mu.Lock()
				windows = append(windows, w)
				mu.Unlock()
			}) {
				return
			}
		}
	}
	stopWriter()
	if len(log) == 0 {
		t.Fatalf("%s: the writer committed nothing while the readers ran", label)
	}

	// The log is replayed once into a memory database, asking the
	// baseline once per (query, state) some window may have read.
	need := make([]map[int]bool, len(versions))
	for _, w := range windows {
		first, last := WindowStates(versions, w)
		for s := first; s <= last; s++ {
			if need[s] == nil {
				need[s] = map[int]bool{}
			}
			need[s][w.Query] = true
		}
	}
	rdb := universityDB(t, windowScale)
	want := map[[2]int]string{}
	for s := range versions {
		if s > 0 {
			if err := rdb.MustRelation(log[s-1].rel).Assign(log[s-1].rows); err != nil {
				t.Fatal(err)
			}
		}
		for q := range need[s] {
			sel, info := checkSrc(t, rdb, windowQueries[q])
			rows, err := baseline.Eval(sel, info, rdb)
			if err != nil {
				t.Fatal(err)
			}
			want[[2]int{q, s}] = RelKey(rows)
		}
	}
	for _, w := range WrongWindows(versions, windows, func(q, s int) string { return want[[2]int{q, s}] }) {
		t.Errorf("%s [%s]: query %d read between versions %d and %d answered rows the baseline gives at none of them: %s",
			label, w.Label, w.Query, w.Lo, w.Hi, w.Key)
	}
}

// runWindowConfig compiles the queries under opts and runs the readers
// against them, passing record every execution that did not fail
// stale. It reports whether the configuration ran clean. A watchdog
// armed for the configuration's whole run, compilation included,
// panics from its own goroutine with every goroutine's stack: the
// test's cleanups (a disk database's Close) would block on a
// deadlocked content lock too.
func runWindowConfig(t *testing.T, label string, db *relation.DB, queries []*calculus.Selection, infos []*calculus.Info, opts engine.Options, record func(Window)) bool {
	watchdog := time.AfterFunc(windowWatchdog, func() {
		buf := make([]byte, 1<<20)
		panic(fmt.Sprintf("%s: no progress in %v; goroutines:\n%s", label, windowWatchdog, buf[:runtime.Stack(buf, true)]))
	})
	defer watchdog.Stop()
	eng := engine.New(db, nil)
	plans := make([]*engine.Plan, len(queries))
	for q := range queries {
		var err error
		if plans[q], err = eng.Compile(queries[q], infos[q], opts); err != nil {
			t.Errorf("%s: compile query %d: %v", label, q, err)
			return false
		}
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < windowReaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < windowReps; r++ {
				q := (r + g) % len(queries)
				lo := db.Version()
				key, err := runLeg(ctx, plans[q], (r/len(queries)+g)%2 == 0)
				hi := db.Version()
				if errors.Is(err, relation.ErrStale) {
					continue
				}
				if err != nil {
					t.Errorf("%s: query %d: %v", label, q, err)
					return
				}
				record(Window{Query: q, Lo: lo, Hi: hi, Key: key})
			}
		}(g)
	}
	wg.Wait()
	return !t.Failed()
}

// runLeg executes a plan once, materialized or through a drained
// cursor, and returns its rows as a RelKey.
func runLeg(ctx context.Context, plan *engine.Plan, materialize bool) (string, error) {
	if materialize {
		rows, err := plan.Eval(ctx)
		return RelKey(rows), err
	}
	cur, err := plan.Rows(ctx)
	if err != nil {
		return "", err
	}
	defer cur.Close()
	var rows [][]value.Value
	for cur.Next() {
		rows = append(rows, slices.Clone(cur.Row()))
	}
	return RelKey(rows), cur.Err()
}

func universityQuery(name string) string {
	for _, q := range UniversityQueries {
		if q.Name == name {
			return q.Src
		}
	}
	panic("enginetest: no university query " + name)
}

func checkSrc(t *testing.T, db *relation.DB, src string) (*calculus.Selection, *calculus.Info) {
	t.Helper()
	sel, err := parser.ParseSelection(src)
	if err != nil {
		t.Fatal(err)
	}
	checked, info, err := calculus.Check(sel, db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	return checked, info
}
