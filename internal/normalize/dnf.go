package normalize

import (
	"encoding/binary"
	"fmt"
	"slices"

	"pascalr/internal/calculus"
)

// DNF converts a quantifier-free NNF matrix into disjunctive normal
// form: a slice of conjunctions, each a slice of join terms. It returns
// a non-nil constant when the matrix is TRUE or FALSE regardless of
// variable bindings: (conjs=nil, const=&true) for a tautologous matrix
// and (conjs=empty, const=&false) for a contradictory one.
//
// Light simplifications are applied: duplicate terms within a
// conjunction collapse, conjunctions containing a term and its exact
// complement (same operands, negated operator) are dropped, and
// duplicate conjunctions collapse. maxConj bounds the distribution
// blow-up.
func DNF(f calculus.Formula, maxConj int) ([][]*calculus.Cmp, *bool, error) {
	conjs, isTrue, err := dnf(f, maxConj)
	if err != nil {
		return nil, nil, err
	}
	if isTrue {
		v := true
		return nil, &v, nil
	}
	conjs = simplifyDNF(conjs)
	if len(conjs) == 0 {
		v := false
		return nil, &v, nil
	}
	return conjs, nil, nil
}

func dnf(f calculus.Formula, maxConj int) ([][]*calculus.Cmp, bool, error) {
	switch g := f.(type) {
	case *calculus.Lit:
		if g.Val {
			return nil, true, nil
		}
		return [][]*calculus.Cmp{}, false, nil
	case *calculus.Cmp:
		return [][]*calculus.Cmp{{g}}, false, nil
	case *calculus.Or:
		var out [][]*calculus.Cmp
		for _, sub := range g.Fs {
			cs, isTrue, err := dnf(sub, maxConj)
			if err != nil {
				return nil, false, err
			}
			if isTrue {
				return nil, true, nil
			}
			out = append(out, cs...)
			if len(out) > maxConj {
				return nil, false, fmt.Errorf("normalize: DNF exceeds %d conjunctions", maxConj)
			}
		}
		return out, false, nil
	case *calculus.And:
		// Start from the single empty conjunction and distribute each
		// child across the accumulated set.
		acc := [][]*calculus.Cmp{{}}
		for _, sub := range g.Fs {
			cs, isTrue, err := dnf(sub, maxConj)
			if err != nil {
				return nil, false, err
			}
			if isTrue {
				continue // AND with TRUE
			}
			if len(cs) == 0 {
				return [][]*calculus.Cmp{}, false, nil // AND with FALSE
			}
			next := make([][]*calculus.Cmp, 0, len(acc)*len(cs))
			for _, a := range acc {
				for _, c := range cs {
					merged := make([]*calculus.Cmp, 0, len(a)+len(c))
					merged = append(merged, a...)
					merged = append(merged, c...)
					next = append(next, merged)
					if len(next) > maxConj {
						return nil, false, fmt.Errorf("normalize: DNF exceeds %d conjunctions", maxConj)
					}
				}
			}
			acc = next
		}
		if len(acc) == 1 && len(acc[0]) == 0 {
			return nil, true, nil // every child was TRUE
		}
		return acc, false, nil
	case *calculus.Not:
		return nil, false, fmt.Errorf("normalize: DNF requires NNF input, found NOT")
	case *calculus.Quant:
		return nil, false, fmt.Errorf("normalize: DNF input contains a quantifier; run Prenex first")
	default:
		return nil, false, fmt.Errorf("normalize: unknown formula %T", f)
	}
}

// simplifyDNF deduplicates terms within conjunctions, drops
// contradictory conjunctions, and deduplicates whole conjunctions. A
// literal is keyed on its comparable calculus.Cmp value, whose operands
// are comparable structs: each distinct literal gets a number, and a
// conjunction is keyed on its literals' sorted numbers. Terms and
// conjunctions keep their order.
func simplifyDNF(conjs [][]*calculus.Cmp) [][]*calculus.Cmp {
	out := make([][]*calculus.Cmp, 0, len(conjs))
	ids := map[calculus.Cmp]int{}
	seenConj := map[string]bool{}
	var conjIDs []int
	var key []byte
	for _, conj := range conjs {
		terms := make([]*calculus.Cmp, 0, len(conj))
		conjIDs = conjIDs[:0]
		contradictory := false
		for _, c := range conj {
			id, ok := ids[*c]
			if !ok {
				id = len(ids)
				ids[*c] = id
			}
			if slices.Contains(conjIDs, id) {
				continue
			}
			// Exact complement present? (same operands, negated operator)
			if neg, ok := ids[calculus.Cmp{L: c.L, Op: c.Op.Negate(), R: c.R}]; ok && slices.Contains(conjIDs, neg) {
				contradictory = true
				break
			}
			conjIDs = append(conjIDs, id)
			terms = append(terms, c)
		}
		if contradictory {
			continue
		}
		slices.Sort(conjIDs)
		key = key[:0]
		for _, id := range conjIDs {
			key = binary.AppendUvarint(key, uint64(id))
		}
		if seenConj[string(key)] {
			continue
		}
		seenConj[string(key)] = true
		out = append(out, terms)
	}
	return out
}
