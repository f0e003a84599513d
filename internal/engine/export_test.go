package engine

import (
	"context"
	"slices"
)

// SingleLists executes the plan once and returns the references of
// every single list its collection phase built, in key order.
func (p *Plan) SingleLists(ctx context.Context, override func(*Options)) ([][]int64, error) {
	cur, pp, err := p.rowsWithPlan(ctx, override, true)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	var out [][]int64
	for _, key := range sortedKeys(pp.sls) {
		out = append(out, slices.Clone(pp.sls[key].out.Refs()))
	}
	return out, nil
}
