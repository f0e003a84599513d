package normalize

import (
	"sort"
	"strings"

	"pascalr/internal/calculus"
)

// StandardizeByRendering is Standardize with the matrix simplified by
// simplifyByRendering: the reference whose output Standardize must
// match byte for byte.
func StandardizeByRendering(sel *calculus.Selection, opts Options) (*StandardForm, error) {
	prefix, matrix, err := Prenex(NNF(SimplifyConsts(calculus.Clone(sel.Pred))))
	if err != nil {
		return nil, err
	}
	conjs, isTrue, err := dnf(matrix, opts.maxConj())
	if err != nil {
		return nil, err
	}
	sf := &StandardForm{
		Proj:   append([]calculus.Field(nil), sel.Proj...),
		Free:   cloneDecls(sel.Free),
		Prefix: prefix,
	}
	if isTrue {
		v := true
		sf.Const = &v
		return sf, nil
	}
	if sf.Matrix = simplifyByRendering(conjs); len(sf.Matrix) == 0 {
		v := false
		sf.Matrix, sf.Const = nil, &v
	}
	return sf, nil
}

// simplifyByRendering is simplifyDNF keyed on each literal's rendering
// (Cmp.String) and on a conjunction's sorted, joined renderings.
func simplifyByRendering(conjs [][]*calculus.Cmp) [][]*calculus.Cmp {
	out := make([][]*calculus.Cmp, 0, len(conjs))
	seenConj := map[string]bool{}
	for _, conj := range conjs {
		terms := make([]*calculus.Cmp, 0, len(conj))
		seen := map[string]bool{}
		contradictory := false
		for _, c := range conj {
			key := c.String()
			if seen[key] {
				continue
			}
			if seen[(&calculus.Cmp{L: c.L, Op: c.Op.Negate(), R: c.R}).String()] {
				contradictory = true
				break
			}
			seen[key] = true
			terms = append(terms, c)
		}
		if contradictory {
			continue
		}
		keys := make([]string, len(terms))
		for i, c := range terms {
			keys[i] = c.String()
		}
		sort.Strings(keys)
		if ck := strings.Join(keys, "&"); !seenConj[ck] {
			seenConj[ck] = true
			out = append(out, terms)
		}
	}
	return out
}
