package stats

import (
	"fmt"
	"sort"

	"pascalr/internal/protocol"
)

// marshalStringKeyed is Marshal as it was when the exact frequency
// table was keyed by encoded value: every exact table is re-keyed by
// its encoded values and written in their sorted order; the other
// modes are written by marshalCol. Statistics keyed by value must
// serialize to the same bytes.
func marshalStringKeyed(t *TableStats) ([]byte, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	w := protocol.NewWriter()
	w.Uvarint(statsMarshalVersion)
	w.String(t.Name)
	w.Uvarint(uint64(t.rows))
	w.Uvarint(uint64(t.drift))
	w.Uvarint(uint64(t.baseRows))
	w.Strings(t.colList)
	for _, name := range t.colList {
		c := t.cols[name]
		if c.counts == nil {
			if err := marshalCol(w, c); err != nil {
				return nil, err
			}
			continue
		}
		byKey := make(map[string]*valCount, len(c.counts))
		for _, vc := range c.counts {
			k := encVal(vc.v)
			if _, dup := byKey[k]; dup {
				return nil, fmt.Errorf("column %s: two values encode to %q", name, k)
			}
			byKey[k] = vc
		}
		w.Uvarint(uint64(c.n))
		w.Bool(c.ordered && c.min.IsValid())
		if c.ordered && c.min.IsValid() {
			if err := w.Val(c.min); err != nil {
				return nil, err
			}
			if err := w.Val(c.max); err != nil {
				return nil, err
			}
		}
		w.Uvarint(marshalModeExact)
		keys := make([]string, 0, len(byKey))
		for k := range byKey {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			if err := w.Val(byKey[k].v); err != nil {
				return nil, err
			}
			w.Uvarint(uint64(byKey[k].n))
		}
	}
	return w.Bytes(), nil
}
