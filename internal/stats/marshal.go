// Checkpoint serialization of TableStats. A durable database persists
// each relation's live statistics in its checkpoint manifest, so
// recovery resumes with the histograms and distinct counts the process
// had built — instead of resetting to empty and
// replanning blind until enough mutations re-teach it. The linear
// distinct sketch is deliberately not persisted (2 KiB per high-
// distinct column of mostly-zero bits): the serialized distinct count
// acts as a floor estimate and the recreated sketch re-learns, which a
// later drift rebuild trues up.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"pascalr/internal/protocol"
	"pascalr/internal/value"
)

// statsMarshalVersion 2 dropped version 1's backend access-cost
// profile and slot-density stripes.
const statsMarshalVersion = 2

// ErrVersion reports a statistics blob written under another
// serialization version. Statistics are derived data: a caller that
// gets it rebuilds them from the relation instead of failing.
var ErrVersion = errors.New("stats: unsupported serialization version")

// Column-statistics mode tags in the serialized form.
const (
	marshalModeExact  = 0
	marshalModeDepth  = 1
	marshalModeBounds = 2
)

// Marshal serializes the statistics (deterministically — map iteration
// is sorted) for a checkpoint manifest.
func (t *TableStats) Marshal() ([]byte, error) {
	if t == nil {
		return nil, nil
	}
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
		if err := marshalCol(w, t.cols[name]); err != nil {
			return nil, fmt.Errorf("stats: column %s: %w", name, err)
		}
	}
	return w.Bytes(), nil
}

func marshalCol(w *protocol.Writer, c *colStats) error {
	w.Uvarint(uint64(c.n))
	w.Bool(c.ordered && c.min.IsValid())
	if c.ordered && c.min.IsValid() {
		if err := w.Val(c.min); err != nil {
			return err
		}
		if err := w.Val(c.max); err != nil {
			return err
		}
	}
	switch {
	case c.counts != nil:
		w.Uvarint(marshalModeExact)
		// Sorted by encoded value, as the table was keyed before it
		// was keyed by value: the blob stays byte-identical.
		type keyed struct {
			key string
			vc  *valCount
		}
		vcs := make([]keyed, 0, len(c.counts))
		for v, vc := range c.counts {
			vcs = append(vcs, keyed{encVal(v), vc})
		}
		sort.Slice(vcs, func(i, j int) bool { return vcs[i].key < vcs[j].key })
		w.Uvarint(uint64(len(vcs)))
		for _, kv := range vcs {
			vc := kv.vc
			if err := w.Val(vc.v); err != nil {
				return err
			}
			w.Uvarint(uint64(vc.n))
		}
	case len(c.buckets) > 0:
		w.Uvarint(marshalModeDepth)
		w.Uvarint(uint64(c.distinctCount()))
		w.Uvarint(math.Float64bits(c.lo))
		w.Uvarint(uint64(len(c.buckets)))
		for _, b := range c.buckets {
			w.Uvarint(math.Float64bits(b.upper))
			w.Uvarint(uint64(b.count))
			w.Uvarint(uint64(b.distinct))
		}
	default:
		w.Uvarint(marshalModeBounds)
		w.Uvarint(uint64(c.distinctCount()))
	}
	return nil
}

// Unmarshal reconstitutes checkpointed statistics, ready to keep
// observing mutations (WAL replay feeds it exactly like live traffic).
func Unmarshal(data []byte) (*TableStats, error) {
	r := protocol.NewReader(data)
	ver, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if ver != statsMarshalVersion {
		return nil, fmt.Errorf("%w %d", ErrVersion, ver)
	}
	name, err := r.String()
	if err != nil {
		return nil, err
	}
	rows, err1 := r.Uvarint()
	drift, err2 := r.Uvarint()
	baseRows, err3 := r.Uvarint()
	if err1 != nil || err2 != nil || err3 != nil {
		return nil, fmt.Errorf("stats: truncated header")
	}
	colList, err := r.Strings()
	if err != nil {
		return nil, err
	}
	t := NewTableStats(name, colList)
	t.rows, t.drift, t.baseRows = int(rows), int(drift), int(baseRows)
	for _, cn := range colList {
		c, err := unmarshalCol(r)
		if err != nil {
			return nil, fmt.Errorf("stats: column %s: %w", cn, err)
		}
		t.cols[cn] = c
	}
	t.degradedCols = 0
	for _, c := range t.cols {
		if c.counts == nil {
			t.degradedCols++
		}
	}
	return t, nil
}

func unmarshalCol(r *protocol.Reader) (*colStats, error) {
	c := &colStats{}
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	c.n = int(n)
	hasBounds, err := r.Bool()
	if err != nil {
		return nil, err
	}
	if hasBounds {
		if c.min, err = r.Val(); err != nil {
			return nil, err
		}
		if c.max, err = r.Val(); err != nil {
			return nil, err
		}
		c.ordered = true
	}
	mode, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	switch mode {
	case marshalModeExact:
		nVals, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if nVals > MaxExactValues {
			return nil, fmt.Errorf("exact table of %d values out of range", nVals)
		}
		c.counts = make(map[value.Value]*valCount, nVals)
		for range nVals {
			v, err := r.Val()
			if err != nil {
				return nil, err
			}
			cnt, err := r.Uvarint()
			if err != nil {
				return nil, err
			}
			c.counts[v] = &valCount{v: v, n: int(cnt)}
		}
		c.distinct = len(c.counts)
	case marshalModeDepth:
		distinct, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		loBits, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		nBuckets, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if nBuckets > 4*HistBuckets {
			return nil, fmt.Errorf("bucket count %d out of range", nBuckets)
		}
		c.distinct = int(distinct)
		c.lo = math.Float64frombits(loBits)
		for range nBuckets {
			upBits, err1 := r.Uvarint()
			cnt, err2 := r.Uvarint()
			dst, err3 := r.Uvarint()
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("truncated bucket")
			}
			c.buckets = append(c.buckets, bucket{upper: math.Float64frombits(upBits), count: int(cnt), distinct: int(dst)})
		}
		// Fresh sketch: the persisted distinct count floors the estimate
		// until the sketch (or a drift rebuild) re-learns.
		c.sketch = newLinearSketch()
	case marshalModeBounds:
		distinct, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		c.distinct = int(distinct)
		c.sketch = newLinearSketch()
	default:
		return nil, fmt.Errorf("unknown column mode %d", mode)
	}
	return c, nil
}

var _ = value.Value{} // keep the import: Val round-trips value.Value
