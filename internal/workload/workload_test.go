package workload

import (
	"math/rand"
	"testing"

	"pascalr/internal/baseline"
	"pascalr/internal/calculus"
	"pascalr/internal/value"
)

func TestUniversityCardinalities(t *testing.T) {
	cfg := DefaultConfig(30)
	db := MustUniversity(cfg)
	for rel, want := range map[string]int{
		"employees": cfg.Employees,
		"papers":    cfg.Papers,
		"courses":   cfg.Courses,
		"timetable": cfg.Timetable,
	} {
		r := db.MustRelation(rel)
		if r.Len() != want {
			t.Errorf("%s has %d rows, want %d", rel, r.Len(), want)
		}
	}
}

func TestUniversityDeterministic(t *testing.T) {
	a := MustUniversity(DefaultConfig(20))
	b := MustUniversity(DefaultConfig(20))
	for _, rel := range []string{"employees", "papers", "courses", "timetable"} {
		at := a.MustRelation(rel).Tuples()
		bt := b.MustRelation(rel).Tuples()
		if len(at) != len(bt) {
			t.Fatalf("%s: %d vs %d rows", rel, len(at), len(bt))
		}
		for i := range at {
			for j := range at[i] {
				if at[i][j] != bt[i][j] {
					t.Fatalf("%s row %d differs", rel, i)
				}
			}
		}
	}
}

func TestUniversitySelectivities(t *testing.T) {
	cfg := DefaultConfig(400)
	db := MustUniversity(cfg)
	profs, y77, soph := 0, 0, 0
	db.MustRelation("employees").Scan(nil, func(_ value.Value, tup []value.Value) bool {
		if tup[2].EnumOrd() == StatusProfessor {
			profs++
		}
		return true
	})
	db.MustRelation("papers").Scan(nil, func(_ value.Value, tup []value.Value) bool {
		if tup[1].AsInt() == 1977 {
			y77++
		}
		return true
	})
	db.MustRelation("courses").Scan(nil, func(_ value.Value, tup []value.Value) bool {
		if tup[1].EnumOrd() <= LevelSophomore {
			soph++
		}
		return true
	})
	within := func(got int, total int, frac float64) bool {
		f := float64(got) / float64(total)
		return f > frac-0.12 && f < frac+0.12
	}
	if !within(profs, cfg.Employees, cfg.ProfFrac) {
		t.Errorf("professor fraction %d/%d far from %.2f", profs, cfg.Employees, cfg.ProfFrac)
	}
	if !within(y77, cfg.Papers, cfg.Year77Frac) {
		t.Errorf("1977 fraction %d/%d far from %.2f", y77, cfg.Papers, cfg.Year77Frac)
	}
	if !within(soph, cfg.Courses, cfg.SophFrac) {
		t.Errorf("sophomore fraction %d/%d far from %.2f", soph, cfg.Courses, cfg.SophFrac)
	}
}

func TestUniversityScaleBeyondSubrange(t *testing.T) {
	// More than 99 employees must widen enumbertype instead of failing.
	cfg := DefaultConfig(150)
	db := MustUniversity(cfg)
	if db.MustRelation("employees").Len() != 150 {
		t.Errorf("failed to scale past 99 employees")
	}
}

func TestSampleSelectionChecks(t *testing.T) {
	db := MustUniversity(DefaultConfig(10))
	for _, sel := range []*calculus.Selection{SampleSelection(), SubexprSelection(), ProfessorsSelection()} {
		if _, _, err := calculus.Check(sel, db.Catalog()); err != nil {
			t.Errorf("%s: %v", sel, err)
		}
	}
}

func TestRandomSelectionsCheckAndEvaluate(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := RandomDB(rng, 6)
		sel := RandomSelection(rng)
		checked, info, err := calculus.Check(sel, db.Catalog())
		if err != nil {
			t.Fatalf("seed %d: generated selection does not check: %v\n%s", seed, err, sel)
		}
		if _, err := baseline.Eval(checked, info, db); err != nil {
			t.Fatalf("seed %d: baseline evaluation failed: %v\n%s", seed, err, sel)
		}
	}
}

func TestRandomDBAllowsEmptyRelations(t *testing.T) {
	sawEmpty := false
	for seed := int64(0); seed < 50 && !sawEmpty; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := RandomDB(rng, 3)
		for i := 0; i < 3; i++ {
			if db.MustRelation("r"+string(rune('0'+i))).Len() == 0 {
				sawEmpty = true
			}
		}
	}
	if !sawEmpty {
		t.Errorf("random databases never produce empty relations; Lemma 1 cases untested")
	}
}
