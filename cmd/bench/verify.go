package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"

	"pascalr"
)

// digest reduces a query result to what the bench compares: the row
// count and an order-independent 64-bit hash of the rows.
type digest struct {
	Rows int    `json:"rows"`
	Hash uint64 `json:"hash"`
}

// add folds one row in. Results are sets, so summing the mixed row
// hashes is order-independent without cancelling duplicates.
func (d *digest) add(row []any) {
	d.Rows++
	d.Hash += mix64(hashRow(row))
}

// merge folds another digest in; template-level expectations are the
// merge of their statements' digests.
func (d *digest) merge(o digest) {
	d.Rows += o.Rows
	d.Hash += mix64(o.Hash)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashRow is FNV-1a over a canonical encoding of the native values both
// surfaces return (int64, string, bool), without allocating.
func hashRow(row []any) uint64 {
	h := uint64(fnvOffset)
	for _, v := range row {
		switch x := v.(type) {
		case int64:
			h = (h ^ 'i') * fnvPrime
			for s := 0; s < 64; s += 8 {
				h = (h ^ uint64(byte(x>>s))) * fnvPrime
			}
		case string:
			h = (h ^ 's') * fnvPrime
			for i := 0; i < len(x); i++ {
				h = (h ^ uint64(x[i])) * fnvPrime
			}
			h = (h ^ 0xff) * fnvPrime
		case bool:
			h = (h ^ 'b') * fnvPrime
			if x {
				h = (h ^ 1) * fnvPrime
			}
		default:
			// No other type crosses either surface; hash its text so a new
			// one changes digests instead of colliding silently.
			for _, c := range []byte(fmt.Sprint(x)) {
				h = (h ^ uint64(c)) * fnvPrime
			}
		}
	}
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func digestOf(rows [][]any) digest {
	var d digest
	for _, r := range rows {
		d.add(r)
	}
	return d
}

//go:embed testdata/expected.json
var expectedJSON []byte

// expectedFile is testdata/expected.json: per workload, per query
// template, the merged digest of the template's statements at the
// default seed and the committed scale.
type expectedFile map[string]map[string]digest

func loadExpected() (expectedFile, error) {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	return f, nil
}

// templateDigests merges per-statement digests by template.
func templateDigests(qs []query, ds []digest) map[string]digest {
	out := map[string]digest{}
	for i, q := range qs {
		d := out[q.tmpl]
		d.merge(ds[i])
		out[q.tmpl] = d
	}
	return out
}

// oracleDigests evaluates every statement once under the static and
// once under the cost-based planner, bypassing the plan cache, and
// requires the two to agree. The returned digests are what every timed
// operation is checked against.
func oracleDigests(db *pascalr.Database, qs []query) ([]digest, error) {
	out := make([]digest, len(qs))
	for i, q := range qs {
		res, err := db.Query(q.src, pascalr.WithoutPlanCache())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.tmpl, err)
		}
		cost, err := db.Query(q.src, pascalr.WithoutPlanCache(), pascalr.WithCostBased())
		if err != nil {
			return nil, fmt.Errorf("%s (cost-based): %w", q.tmpl, err)
		}
		out[i] = digestOf(res.Rows())
		if c := digestOf(cost.Rows()); c != out[i] {
			return nil, fmt.Errorf("%s: static plan gives %+v, cost-based plan %+v", q.tmpl, out[i], c)
		}
	}
	return out, nil
}

// checkBaseline runs the first two statements of every template against
// the tuple-substitution oracle on db, which the caller loaded at the
// small oracle scale.
func checkBaseline(db *pascalr.Database, qs []query) error {
	perTmpl := map[string]int{}
	for _, q := range qs {
		if perTmpl[q.tmpl]++; perTmpl[q.tmpl] > 2 {
			continue
		}
		want, err := db.Query(q.src, pascalr.WithBaseline())
		if err != nil {
			return fmt.Errorf("baseline %s: %w", q.tmpl, err)
		}
		for _, opts := range [][]pascalr.Option{{pascalr.WithoutPlanCache()}, {pascalr.WithoutPlanCache(), pascalr.WithCostBased()}} {
			got, err := db.Query(q.src, opts...)
			if err != nil {
				return fmt.Errorf("%s: %w", q.tmpl, err)
			}
			if g, w := digestOf(got.Rows()), digestOf(want.Rows()); g != w {
				return fmt.Errorf("%s: engine gives %+v, tuple-substitution baseline %+v", q.tmpl, g, w)
			}
		}
	}
	return nil
}

// compareExpected checks the template digests of one workload against
// the committed file.
func compareExpected(want map[string]digest, got map[string]digest) error {
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if w, ok := want[n]; !ok || w != got[n] {
			return fmt.Errorf("%s: got %+v, testdata/expected.json has %+v", n, got[n], w)
		}
	}
	return nil
}
