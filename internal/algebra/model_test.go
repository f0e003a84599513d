package algebra

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pascalr/internal/recycle"
	"pascalr/internal/stats"
)

// model is the test's reference relation: rows in first-occurrence
// order, deduplicated through a plain map of rendered rows.
type model struct {
	vars []string
	rows [][]int64
	seen map[string]bool
}

func newModel(vars []string) *model {
	return &model{vars: vars, seen: map[string]bool{}}
}

func (m *model) add(row []int64) {
	if k := fmt.Sprint(row); !m.seen[k] {
		m.seen[k] = true
		m.rows = append(m.rows, slices.Clone(row))
	}
}

func (m *model) col(v string) int { return slices.Index(m.vars, v) }

var modelPool = []string{"a", "b", "c", "d"}

// randRel draws a relation of arity 0–3 over modelPool, possibly empty,
// whose words repeat often enough to produce duplicates and join
// matches. A variable's words all point into one relation, so shared
// columns compare like references do. The relation is lent by ws.
func randRel(rng *rand.Rand, ws *Workspace, vars []string) (*RefRel, *model) {
	r, m := ws.New(vars, nil), newModel(vars)
	n := rng.Intn(10)
	if rng.Intn(4) == 0 {
		n = 0
	}
	for i := 0; i < n; i++ {
		row := make([]int64, len(vars))
		for j, v := range vars {
			row[j] = ref(slices.Index(modelPool, v), rng.Intn(3))
		}
		r.Add(row)
		m.add(row)
	}
	return r, m
}

func randVars(rng *rand.Rand) []string {
	var vars []string
	for _, i := range rng.Perm(len(modelPool))[:rng.Intn(4)] {
		vars = append(vars, modelPool[i])
	}
	return vars
}

// naiveJoin is Join by nested loops: with shared variables, the larger
// side (b on ties) in order outside and the smaller inside; without,
// a outside and b inside.
func naiveJoin(a, b *model) *model {
	outVars := slices.Clone(a.vars)
	for _, v := range b.vars {
		if a.col(v) < 0 {
			outVars = append(outVars, v)
		}
	}
	out := newModel(outVars)
	emit := func(ra, rb []int64) {
		row := slices.Clone(ra)
		for j, v := range b.vars {
			if a.col(v) < 0 {
				row = append(row, rb[j])
			}
		}
		out.add(row)
	}
	match := func(ra, rb []int64) bool {
		for i, v := range a.vars {
			if j := b.col(v); j >= 0 && ra[i] != rb[j] {
				return false
			}
		}
		return true
	}
	shared := slices.ContainsFunc(a.vars, func(v string) bool { return b.col(v) >= 0 })
	switch {
	case !shared:
		for _, ra := range a.rows {
			for _, rb := range b.rows {
				emit(ra, rb)
			}
		}
	case len(b.rows) < len(a.rows):
		for _, ra := range a.rows {
			for _, rb := range b.rows {
				if match(ra, rb) {
					emit(ra, rb)
				}
			}
		}
	default:
		for _, rb := range b.rows {
			for _, ra := range a.rows {
				if match(ra, rb) {
					emit(ra, rb)
				}
			}
		}
	}
	return out
}

// pick returns r's words at the columns of keep.
func (m *model) pick(r []int64, keep []string) []int64 {
	row := make([]int64, len(keep))
	for i, v := range keep {
		row[i] = r[m.col(v)]
	}
	return row
}

func naiveProject(a *model, keep []string) *model {
	out := newModel(keep)
	for _, r := range a.rows {
		out.add(a.pick(r, keep))
	}
	return out
}

func naiveDivide(a *model, v string, divisor []int64) *model {
	vi := a.col(v)
	var rest []string
	for _, av := range a.vars {
		if av != v {
			rest = append(rest, av)
		}
	}
	groups := naiveProject(a, rest)
	out := newModel(rest)
	for _, g := range groups.rows {
		all := true
		for _, d := range divisor {
			found := false
			for _, r := range a.rows {
				if r[vi] == d && slices.Equal(a.pick(r, rest), g) {
					found = true
					break
				}
			}
			all = all && found
		}
		if all {
			out.add(g)
		}
	}
	return out
}

func sameRows(a, b [][]int64) bool { return slices.EqualFunc(a, b, slices.Equal[[]int64]) }

// checkOp compares an operation's output row for row, in order, with
// the model's, and checks the reference tuples its sink counted: one
// per output row, peaking at the output's size.
func checkOp(t *testing.T, what string, got *RefRel, want *model, st *stats.Counters) {
	t.Helper()
	if !slices.Equal(got.Vars(), want.vars) {
		t.Fatalf("%s: vars %v, want %v", what, got.Vars(), want.vars)
	}
	if rows := rowsOf(got); !sameRows(rows, want.rows) {
		t.Fatalf("%s: rows %v, want %v", what, rows, want.rows)
	}
	n := int64(len(want.rows))
	if st.RefTuples != n || st.PeakRefTuples != n {
		t.Fatalf("%s: counted %d reference tuples peaking at %d, want %d and %d", what, st.RefTuples, st.PeakRefTuples, n, n)
	}
}

// TestCombinationMatchesModel runs Join, Union, Project, Divide and
// DistinctOn over seeded random relations — duplicates, arities 0–3,
// shared and disjoint variables, empty sides — against nested-loop
// references, comparing rows in order and the counted reference
// tuples. The "one hash" run puts every row on the same hash, so every
// set and join probe goes through the word comparison. The "recycled"
// run lends every relation and scratch table from one workspace,
// released after each iteration with returned memory poisoned, so each
// iteration builds in memory the previous one filled with garbage; the
// other runs take a fresh workspace per iteration.
func TestCombinationMatchesModel(t *testing.T) {
	for _, mode := range []string{"hash", "one hash", "recycled"} {
		t.Run(mode, func(t *testing.T) {
			ws := &Workspace{}
			switch mode {
			case "one hash":
				rowHash = func([]int64) uint64 { return 0 }
				t.Cleanup(func() { rowHash = hashRow })
			case "recycled":
				recycle.Poison = true
				t.Cleanup(func() { recycle.Poison = false })
			}
			rng := rand.New(rand.NewSource(7))
			ctx := context.Background()
			for it := 0; it < 1500; it++ {
				if mode == "recycled" {
					ws.Release(nil)
				} else {
					ws = &Workspace{}
				}
				a, am := randRel(rng, ws, randVars(rng))
				if got := rowsOf(a); !sameRows(got, am.rows) {
					t.Fatalf("Add: rows %v, want %v", got, am.rows)
				}
				b, bm := randRel(rng, ws, randVars(rng))

				st := &stats.Counters{}
				j, err := Join(ctx, a, b, st)
				if err != nil {
					t.Fatal(err)
				}
				jm := naiveJoin(am, bm)
				checkOp(t, fmt.Sprintf("Join(%v, %v)", am.rows, bm.rows), j, jm, st)
				if st.HashJoins+st.CartesianJoins != 1 {
					t.Fatalf("join counted %d hash and %d Cartesian joins", st.HashJoins, st.CartesianJoins)
				}
				if st.HashJoins == 1 && st.IndexProbes != int64(max(a.Len(), b.Len())) {
					t.Fatalf("hash join counted %d probes, want %d", st.IndexProbes, max(a.Len(), b.Len()))
				}

				// Union with the same variables in another order.
				perm := slices.Clone(am.vars)
				rng.Shuffle(len(perm), func(i, k int) { perm[i], perm[k] = perm[k], perm[i] })
				c, cm := randRel(rng, ws, perm)
				st = &stats.Counters{}
				u, err := Union(ctx, a, c, st)
				if err != nil {
					t.Fatal(err)
				}
				um := newModel(am.vars)
				for _, r := range am.rows {
					um.add(r)
				}
				for _, r := range naiveProject(cm, am.vars).rows {
					um.add(r)
				}
				checkOp(t, "Union", u, um, st)

				// Project onto a random subset, in random order.
				keep := slices.Clone(jm.vars)
				rng.Shuffle(len(keep), func(i, k int) { keep[i], keep[k] = keep[k], keep[i] })
				keep = keep[:rng.Intn(len(keep)+1)]
				st = &stats.Counters{}
				p, err := Project(ctx, j, keep, st)
				if err != nil {
					t.Fatal(err)
				}
				checkOp(t, "Project", p, naiveProject(jm, keep), st)
				if d, want := j.DistinctOn(keep), len(naiveProject(jm, keep).rows); len(keep) > 0 && d != want {
					t.Fatalf("DistinctOn(%v) = %d, want %d", keep, d, want)
				}

				// Divide by a random divisor with duplicates, maybe empty.
				if len(jm.vars) == 0 {
					continue
				}
				v := jm.vars[rng.Intn(len(jm.vars))]
				var divisor []int64
				for k := rng.Intn(4); k > 0; k-- {
					divisor = append(divisor, ref(slices.Index(modelPool, v), rng.Intn(3)))
				}
				st = &stats.Counters{}
				q, err := Divide(ctx, j, v, divisor, st)
				if err != nil {
					t.Fatal(err)
				}
				checkOp(t, fmt.Sprintf("Divide(%v, %s, %v)", jm.rows, v, divisor), q, naiveDivide(jm, v, divisor), st)
			}
		})
	}
}
