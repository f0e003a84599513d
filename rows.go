package pascalr

import (
	"errors"
	"fmt"

	"pascalr/internal/engine"
	"pascalr/internal/relation"
	"pascalr/internal/schema"
	"pascalr/internal/value"
)

// Rows is a streaming query result in the database/sql idiom:
//
//	rows, err := db.QueryRows(ctx, src)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    var name string
//	    if err := rows.Scan(&name); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// The construction phase runs lazily: each Next dereferences and
// projects one result tuple. Cancelling the context passed to QueryRows
// or Stmt.Rows stops iteration; Err then returns ctx.Err().
//
// A cursor holds references into the base relations, so mutating the
// database (Exec with :+/:-/:=) between opening the cursor and
// exhausting it invalidates it: a Next that dereferences a deleted
// element stops, and Err reports the retryable ErrStaleRead. The
// one-shot QueryRows path absorbs one such invalidation transparently —
// it re-executes the query and resumes the stream without repeating
// tuples already yielded; a second invalidation (or any on a prepared
// Stmt.Rows, which performs no retry) surfaces ErrStaleRead to the
// caller. Materialize with Query when mutations interleave heavily
// with consumption.
type Rows struct {
	cur  *engine.Cursor
	cols []string
	typs []*schema.Type

	// reopen re-executes the plan for the bounded mid-stream retry; nil
	// on prepared statements (their callers own the retry decision).
	reopen  func() (*engine.Cursor, error)
	retried bool
	err     error // sticky: a reopen that itself failed

	// slab is what is left of the values the rows of the current chunk
	// are cut from, one slab per chunk the cursor constructs; labels
	// holds each enumeration component's labels, boxed at first use.
	slab   []any
	labels [][]any
}

func newRows(cur *engine.Cursor) *Rows {
	r := &Rows{cur: cur}
	for _, c := range cur.Schema().Cols {
		r.cols = append(r.cols, c.Name)
		r.typs = append(r.typs, c.Type)
	}
	return r
}

// enableRetry arms the one-shot stale-read retry. The re-executed
// cursor is seeded with the tuples already yielded, so the stream
// resumes without duplicates.
func (r *Rows) enableRetry(reopen func() (*engine.Cursor, error)) {
	r.reopen = reopen
}

// Columns returns the component names of the result.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// Next advances to the next result tuple, returning false when the
// result is exhausted, the context is cancelled, or an error occurs.
// On a one-shot QueryRows cursor, a mid-stream stale read triggers one
// transparent re-execution: the stream resumes over the new contents,
// skipping tuples already yielded.
func (r *Rows) Next() bool {
	for {
		if r.err != nil {
			return false
		}
		if r.cur.Next() {
			return true
		}
		err := r.cur.Err()
		if err == nil || r.reopen == nil || r.retried || !errors.Is(err, relation.ErrStale) {
			return false
		}
		// Bounded single retry: re-execute the plan and resume. A writer
		// winning the race again surfaces ErrStaleRead like the prepared
		// path does.
		r.retried = true
		mStaleRetries.Inc()
		cur, rerr := r.reopen()
		if rerr != nil {
			r.err = rerr
			return false
		}
		cur.Seed(r.cur)
		r.cur.Close()
		r.cur = cur
	}
}

// Err returns the error that ended iteration, if any. Stale references
// are reported as the retryable ErrStaleRead.
func (r *Rows) Err() error {
	if r.err != nil {
		return classifyErr(r.err)
	}
	return classifyErr(r.cur.Err())
}

// Close releases the buffered combination result; further Next calls
// return false. It is idempotent and safe to defer.
func (r *Rows) Close() error { return r.cur.Close() }

// ColumnKind names the native Go type a result component converts to
// in Values and Scan.
type ColumnKind uint8

// The result component kinds.
const (
	ColumnInt    ColumnKind = iota + 1 // int64
	ColumnString                       // string: character arrays, and references rendered as text
	ColumnBool                         // bool
	ColumnEnum                         // string: a label of the component's enumeration type
)

// ColumnKinds reports the native kind of each result component and,
// for enumeration components, the type's labels in declaration order
// (nil for the others).
func (r *Rows) ColumnKinds() ([]ColumnKind, [][]string) {
	kinds := make([]ColumnKind, len(r.typs))
	labels := make([][]string, len(r.typs))
	for i, t := range r.typs {
		switch t.Kind {
		case schema.TInt:
			kinds[i] = ColumnInt
		case schema.TBool:
			kinds[i] = ColumnBool
		case schema.TEnum:
			kinds[i] = ColumnEnum
			labels[i] = t.Labels
		default:
			kinds[i] = ColumnString
		}
	}
	return kinds, labels
}

// Scan copies the current tuple into the destinations: *int64 or *int
// for integer components, *string for character arrays, enumeration
// labels and references, *bool for booleans, and *any for the native
// conversion.
func (r *Rows) Scan(dest ...any) error {
	row := r.cur.Row()
	if row == nil {
		return fmt.Errorf("pascalr: Scan called without a successful Next")
	}
	if len(dest) != len(row) {
		return fmt.Errorf("pascalr: Scan expects %d destinations, got %d", len(row), len(dest))
	}
	for i, v := range row {
		if err := scanValue(v, r.typs[i], dest[i]); err != nil {
			return fmt.Errorf("pascalr: component %s: %w", r.cols[i], err)
		}
	}
	return nil
}

// Values converts the current tuple to native Go values, with the same
// mapping Result.Rows uses, in a fresh slice the caller may keep and
// append to. It returns nil before the first Next.
//
// The slices of one chunk of rows — those the cursor constructed under
// one read lock, up to 256 — are cut from one allocation sized to the
// chunk, and each enumeration label is boxed once. So a kept row keeps
// its whole chunk's slices alive; a caller that keeps a few rows of a
// long result should keep copies (slices.Clone).
func (r *Rows) Values() []any {
	row := r.cur.Row()
	if row == nil {
		return nil
	}
	w := len(row)
	if w == 0 {
		return []any{}
	}
	if len(r.slab) < w {
		r.slab = make([]any, (1+r.cur.Buffered())*w)
	}
	out := r.slab[:w:w]
	r.slab = r.slab[w:]
	for i, v := range row {
		out[i] = r.native(i, v)
	}
	return out
}

// native is convertValue for component i, with enumeration labels
// boxed once per Rows.
func (r *Rows) native(i int, v value.Value) any {
	t := r.typs[i]
	if v.Kind() != value.KindEnum || t.Kind != schema.TEnum {
		return convertValue(v, t)
	}
	ord := v.EnumOrd()
	if ord < 0 || ord >= len(t.Labels) {
		return convertValue(v, t)
	}
	if r.labels == nil {
		r.labels = make([][]any, len(r.typs))
	}
	if r.labels[i] == nil {
		r.labels[i] = make([]any, len(t.Labels))
	}
	if r.labels[i][ord] == nil {
		r.labels[i][ord] = convertValue(v, t)
	}
	return r.labels[i][ord]
}

func scanValue(v value.Value, t *schema.Type, dest any) error {
	switch d := dest.(type) {
	case *any:
		*d = convertValue(v, t)
	case *int64:
		if v.Kind() != value.KindInt {
			return fmt.Errorf("cannot scan %s into *int64", v)
		}
		*d = v.AsInt()
	case *int:
		if v.Kind() != value.KindInt {
			return fmt.Errorf("cannot scan %s into *int", v)
		}
		*d = int(v.AsInt())
	case *string:
		switch v.Kind() {
		case value.KindString:
			*d = v.AsString()
		case value.KindEnum, value.KindRef:
			*d = t.Format(v)
		default:
			return fmt.Errorf("cannot scan %s into *string", v)
		}
	case *bool:
		if v.Kind() != value.KindBool {
			return fmt.Errorf("cannot scan %s into *bool", v)
		}
		*d = v.AsBool()
	default:
		return fmt.Errorf("unsupported Scan destination type %T", dest)
	}
	return nil
}
