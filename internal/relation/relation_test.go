package relation

import (
	"strings"
	"testing"
	"testing/quick"

	"pascalr/internal/colbatch"
	"pascalr/internal/schema"
	"pascalr/internal/stats"
	"pascalr/internal/value"
)

func employeesSchema(t *testing.T) *schema.RelSchema {
	t.Helper()
	st, err := schema.EnumType("statustype", "student", "technician", "assistant", "professor")
	if err != nil {
		t.Fatal(err)
	}
	return schema.MustRelSchema("employees", []schema.Column{
		{Name: "enr", Type: schema.IntType("enumbertype", 1, 99)},
		{Name: "ename", Type: schema.StringType("nametype", 10)},
		{Name: "estatus", Type: st},
	}, []string{"enr"})
}

func emp(enr int64, name string, status int) []value.Value {
	return []value.Value{value.Int(enr), value.String_(name), value.Enum("statustype", status)}
}

func TestInsertAndLookup(t *testing.T) {
	r := NewDB().MustCreate(employeesSchema(t))
	ref, err := r.Insert(emp(20, "Highman", 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	got, ok, err := r.Lookup([]value.Value{value.Int(20)})
	if err != nil || !ok || !value.Equal(got, ref) {
		t.Errorf("Lookup ref mismatch")
	}
	tup, ok, err := r.Get([]value.Value{value.Int(20)})
	if err != nil || !ok || tup[1].AsString() != "Highman" {
		t.Errorf("Get = %v,%v,%v", tup, ok, err)
	}
	if _, ok, err := r.Lookup([]value.Value{value.Int(99)}); ok || err != nil {
		t.Errorf("missing key resolved")
	}
}

func TestInsertDuplicates(t *testing.T) {
	r := NewDB().MustCreate(employeesSchema(t))
	ref1, _ := r.Insert(emp(1, "A", 0))
	// Identical element: set semantics, no-op, same reference.
	ref2, err := r.Insert(emp(1, "A", 0))
	if err != nil {
		t.Fatalf("identical re-insert errored: %v", err)
	}
	if !value.Equal(ref1, ref2) {
		t.Errorf("re-insert returned different reference")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d after duplicate insert", r.Len())
	}
	// Same key, different components: error.
	if _, err := r.Insert(emp(1, "B", 0)); err == nil {
		t.Errorf("key collision accepted")
	}
	// Type violation propagates.
	if _, err := r.Insert(emp(200, "C", 0)); err == nil {
		t.Errorf("subrange violation accepted")
	}
}

func TestDeref(t *testing.T) {
	r := NewDB().MustCreate(employeesSchema(t))
	ref, _ := r.Insert(emp(5, "Smith", 3))
	tup, err := r.Deref(ref)
	if err != nil || tup[1].AsString() != "Smith" {
		t.Fatalf("Deref = %v, %v", tup, err)
	}
	// Wrong relation id.
	other := value.Ref(r.ID()+1, 0, 0)
	if _, err := r.Deref(other); err == nil {
		t.Errorf("foreign reference dereferenced")
	}
	// Out-of-range slot.
	if _, err := r.Deref(value.Ref(r.ID(), 99, 0)); err == nil {
		t.Errorf("out-of-range slot dereferenced")
	}
}

func TestDeleteStalenessAndReinsert(t *testing.T) {
	r := NewDB().MustCreate(employeesSchema(t))
	ref, _ := r.Insert(emp(5, "Smith", 3))
	if ok, err := r.Delete([]value.Value{value.Int(5)}); err != nil || !ok {
		t.Fatalf("Delete failed")
	}
	if ok, err := r.Delete([]value.Value{value.Int(5)}); err != nil || ok {
		t.Errorf("second Delete succeeded")
	}
	if r.Len() != 0 {
		t.Errorf("Len = %d after delete", r.Len())
	}
	if _, err := r.Deref(ref); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Errorf("stale reference dereferenced: %v", err)
	}
	// Re-insert same key: new element, old reference stays stale.
	ref2, err := r.Insert(emp(5, "Jones", 0))
	if err != nil {
		t.Fatal(err)
	}
	if value.Equal(ref, ref2) {
		t.Errorf("re-used reference after delete+insert")
	}
	if _, err := r.Deref(ref); err == nil {
		t.Errorf("old reference valid after re-insert")
	}
	tup, err := r.Deref(ref2)
	if err != nil || tup[1].AsString() != "Jones" {
		t.Errorf("new reference broken: %v %v", tup, err)
	}
}

func TestAssignInvalidatesReferences(t *testing.T) {
	r := NewDB().MustCreate(employeesSchema(t))
	ref, _ := r.Insert(emp(1, "A", 0))
	err := r.Assign([][]value.Value{emp(2, "B", 1), emp(3, "C", 2)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d after Assign", r.Len())
	}
	if _, err := r.Deref(ref); err == nil {
		t.Errorf("pre-assign reference still valid")
	}
	if _, ok, _ := r.Lookup([]value.Value{value.Int(1)}); ok {
		t.Errorf("old element still present")
	}
	// Assign with a bad tuple fails up front.
	if err := r.Assign([][]value.Value{emp(200, "X", 0)}); err == nil {
		t.Errorf("Assign accepted invalid tuple")
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	r := NewDB().MustCreate(employeesSchema(t))
	for i := int64(1); i <= 5; i++ {
		if _, err := r.Insert(emp(i, "N", 0)); err != nil {
			t.Fatal(err)
		}
	}
	r.Delete([]value.Value{value.Int(3)})
	var got []int64
	r.Scan(nil, func(_ value.Value, tuple []value.Value) bool {
		got = append(got, tuple[0].AsInt())
		return true
	})
	want := []int64{1, 2, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("scan saw %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("scan order %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	r.Scan(nil, func(value.Value, []value.Value) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestScanCountsStats(t *testing.T) {
	r := NewDB().MustCreate(employeesSchema(t))
	st := &stats.Counters{}
	for i := int64(1); i <= 4; i++ {
		r.Insert(emp(i, "N", 0))
	}
	r.Scan(st, func(value.Value, []value.Value) bool { return true })
	r.Scan(st, func(value.Value, []value.Value) bool { return true })
	if st.BaseScans["employees"] != 2 {
		t.Errorf("scans = %v", st.BaseScans)
	}
	if st.TuplesRead != 8 {
		t.Errorf("tuples read = %d", st.TuplesRead)
	}
}

func TestRefsAndTuples(t *testing.T) {
	r := NewDB().MustCreate(employeesSchema(t))
	r.Insert(emp(1, "A", 0))
	r.Insert(emp(2, "B", 1))
	refs := r.Refs()
	if len(refs) != 2 {
		t.Fatalf("Refs = %v", refs)
	}
	tuples := r.Tuples()
	if len(tuples) != 2 || tuples[1][1].AsString() != "B" {
		t.Errorf("Tuples = %v", tuples)
	}
	// Returned tuples are copies: mutating them must not corrupt storage.
	tuples[0][1] = value.String_("ZZZ")
	got, _, _ := r.Get([]value.Value{value.Int(1)})
	if got[1].AsString() != "A" {
		t.Errorf("Tuples exposed internal storage")
	}
}

func TestInsertCopiesInput(t *testing.T) {
	r := NewDB().MustCreate(employeesSchema(t))
	tup := emp(1, "A", 0)
	r.Insert(tup)
	tup[1] = value.String_("HACK")
	got, _, _ := r.Get([]value.Value{value.Int(1)})
	if got[1].AsString() != "A" {
		t.Errorf("Insert retained caller's slice")
	}
}

// Property: after any sequence of inserts and deletes, Len matches the
// number of distinct live keys and every live element is reachable both
// by key and by scan.
func TestInsertDeleteInvariant(t *testing.T) {
	f := func(ops []int16) bool {
		r := NewDB().MustCreate(schema.MustRelSchema("t", []schema.Column{
			{Name: "k", Type: schema.IntType("", -40, 40)},
			{Name: "v", Type: schema.IntType("", 0, 1000)},
		}, []string{"k"}))
		alive := map[int64]bool{}
		for i, op := range ops {
			k := int64(op%40 + 40/2) // keys in a small range to force collisions
			if k < -40 || k > 40 {
				continue
			}
			if op%3 == 0 {
				r.Delete([]value.Value{value.Int(k)})
				delete(alive, k)
			} else {
				_, err := r.Insert([]value.Value{value.Int(k), value.Int(int64(i % 1000))})
				if err == nil {
					alive[k] = true
				} else if !alive[k] {
					return false // insert failed though key was free
				}
			}
		}
		if r.Len() != len(alive) {
			return false
		}
		seen := 0
		okAll := true
		r.Scan(nil, func(ref value.Value, tuple []value.Value) bool {
			seen++
			if !alive[tuple[0].AsInt()] {
				okAll = false
			}
			if _, err := r.Deref(ref); err != nil {
				okAll = false
			}
			return true
		})
		return okAll && seen == len(alive)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDB(t *testing.T) {
	d := NewDB()
	st := &stats.Counters{}
	d.SetStats(st)
	es := employeesSchema(t)
	r, err := d.Create(es)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Create(es); err == nil {
		t.Errorf("duplicate relation created")
	}
	got, ok := d.Relation("employees")
	if !ok || got != r {
		t.Errorf("Relation lookup failed")
	}
	if _, ok := d.Relation("nope"); ok {
		t.Errorf("unknown relation resolved")
	}
	byID, ok := d.ByID(r.ID())
	if !ok || byID != r {
		t.Errorf("ByID failed")
	}
	if _, ok := d.ByID(99); ok {
		t.Errorf("ByID(99) resolved")
	}

	ref, _ := r.Insert(emp(7, "Lee", 2))
	tup, err := d.Deref(ref)
	if err != nil || tup[0].AsInt() != 7 {
		t.Errorf("DB.Deref = %v, %v", tup, err)
	}
	if _, err := d.Deref(value.Ref(9, 0, 0)); err == nil {
		t.Errorf("unknown relation reference dereferenced")
	}
	// Stats flow through relations created before SetStats too.
	r.Refs()
	if st.BaseScans["employees"] != 1 {
		t.Errorf("db stats not attached: %v", st.BaseScans)
	}
}

func TestDBSetStatsAfterCreate(t *testing.T) {
	d := NewDB()
	r := d.MustCreate(employeesSchema(t))
	st := &stats.Counters{}
	d.SetStats(st)
	r.Insert(emp(1, "A", 0))
	r.Refs()
	if st.BaseScans["employees"] != 1 {
		t.Errorf("SetStats after create not applied")
	}
}

// TestDBVersion: the content version must bump exactly on content
// mutations — new inserts, effective deletes, assignments — and stay
// put on no-ops and schema growth.
func TestDBVersion(t *testing.T) {
	d := NewDB()
	v0 := d.Version()
	r := d.MustCreate(employeesSchema(t))
	if d.Version() != v0 {
		t.Errorf("creating a relation bumped the version")
	}
	if _, err := r.Insert(emp(1, "A", 0)); err != nil {
		t.Fatal(err)
	}
	v1 := d.Version()
	if v1 == v0 {
		t.Errorf("insert did not bump the version")
	}
	if _, err := r.Insert(emp(1, "A", 0)); err != nil { // duplicate: no-op
		t.Fatal(err)
	}
	if d.Version() != v1 {
		t.Errorf("duplicate insert bumped the version")
	}
	if ok, err := r.Delete([]value.Value{value.Int(99)}); err != nil || ok { // absent key: no-op
		t.Fatal("deleted a missing key")
	}
	if d.Version() != v1 {
		t.Errorf("no-op delete bumped the version")
	}
	if ok, err := r.Delete([]value.Value{value.Int(1)}); err != nil || !ok {
		t.Fatal("delete failed")
	}
	v2 := d.Version()
	if v2 == v1 {
		t.Errorf("delete did not bump the version")
	}
	if err := r.Assign(nil); err != nil {
		t.Fatal(err)
	}
	if d.Version() == v2 {
		t.Errorf("assign did not bump the version")
	}
}

// TestPointReadsAreCallerOwned: the tuples Get, Deref and DB.Deref
// return belong to the caller. Writing into them changes neither a later
// Get nor a batch scan of an in-memory relation, and DerefInto of a
// memtable row into a reused buffer allocates nothing.
func TestPointReadsAreCallerOwned(t *testing.T) {
	d := NewDB()
	r := d.MustCreate(employeesSchema(t))
	want := emp(10, "Lee", 2)
	ref, err := r.Insert(want)
	if err != nil {
		t.Fatal(err)
	}
	key := []value.Value{value.Int(10)}
	scribble := func(tuple []value.Value) {
		tuple[0], tuple[1], tuple[2] = value.Int(99), value.String_("X"), value.Enum("statustype", 0)
	}
	got, ok, err := r.Get(key)
	if err != nil || !ok {
		t.Fatal("Get missed the element")
	}
	scribble(got)
	el, err := r.Deref(ref)
	if err != nil {
		t.Fatal(err)
	}
	scribble(el)
	if el, err = d.Deref(ref); err != nil {
		t.Fatal(err)
	}
	scribble(el)

	if got, ok, err := r.Get(key); err != nil || !ok || !tuplesEqual(got, want) {
		t.Fatalf("Get after writing into returned tuples = %v, want %v", got, want)
	}
	b := colbatch.New(len(want), 8)
	var scanned [][]value.Value
	err = r.ScanBatches(nil, 0, r.SlotSpan(), b, nil, func() error {
		for i := 0; i < b.Len(); i++ {
			row := make([]value.Value, len(want))
			for c := range row {
				row[c] = b.ColVal(c, i)
			}
			scanned = append(scanned, row)
		}
		return nil
	})
	if err != nil || len(scanned) != 1 || !tuplesEqual(scanned[0], want) {
		t.Fatalf("batch scan after writing into returned tuples = %v (%v), want %v", scanned, err, want)
	}

	buf := make([]value.Value, len(want))
	allocs := testing.AllocsPerRun(100, func() {
		if buf, err = r.DerefInto(ref, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || !tuplesEqual(buf, want) {
		t.Fatalf("DerefInto into a reused buffer: %v allocations, tuple %v", allocs, buf)
	}
}
