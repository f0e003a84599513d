package storage

import (
	"os"
	"path/filepath"
	"testing"

	"pascalr/internal/colbatch"
	"pascalr/internal/value"
)

// The durability decoders parse bytes that crossed a crash: they must
// reject arbitrary corruption with an error (or a shorter valid
// prefix), never panic or over-read. Each fuzz target seeds with valid
// encodings so mutation explores the interesting structured space.

func FuzzScanFrames(f *testing.F) {
	var log []byte
	for _, p := range [][]byte{[]byte("a"), []byte("record-two"), {}, []byte("third")} {
		log = appendFrame(log, p)
	}
	f.Add(log)
	f.Add(log[:len(log)-3])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, valid := ScanFrames(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid offset %d out of [0, %d]", valid, len(data))
		}
		// The reported prefix must itself rescan identically: recovery
		// truncates to it and trusts the result.
		again, validAgain := ScanFrames(data[:valid])
		if validAgain != valid || len(again) != len(payloads) {
			t.Fatalf("rescan of valid prefix diverged: %d/%d frames, %d/%d bytes",
				len(again), len(payloads), validAgain, valid)
		}
	})
}

func FuzzDecodeRecord(f *testing.F) {
	seeds := []Record{
		{Seq: 3, Op: OpCreateIndex, Rel: 1, Col: "pname"},
		{Seq: 4, Op: OpInsert, Rel: 1, Tuple: []value.Value{value.Int(7), value.String_("bolt")}},
		{Seq: 5, Op: OpDelete, Rel: 1, Key: []value.Value{value.Int(7)}},
		{Seq: 6, Op: OpAssign, Rel: 1, Tuples: [][]value.Value{{value.Int(1)}}},
	}
	for _, rec := range seeds {
		if payload, err := EncodeRecord(rec); err == nil {
			f.Add(payload)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		// A record that decodes must re-encode (DDL payloads aside,
		// whose schema objects carry validation of their own).
		if rec.Op >= OpCreateIndex && rec.Op <= OpAssign {
			if _, err := EncodeRecord(rec); err != nil {
				t.Fatalf("decoded record does not re-encode: %v", err)
			}
		}
	})
}

func FuzzDecodeManifest(f *testing.F) {
	dir := f.TempDir()
	m := &Manifest{LastSeq: 9, Rels: []RelManifest{{
		Schema: testSchema(f),
		Disk:   DiskTableMeta{SlotSpan: 4, NextGen: 1, Tables: []string{"r0-g0.sst"}, Live: 4},
		Stats:  []byte{1, 2},
	}}}
	if err := WriteManifest(dir, m); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must not panic; errors are the expected outcome for garbage.
		payloads, _ := ScanFrames(data)
		for _, p := range payloads {
			_, _ = DecodeManifest(p)
		}
		_, _ = DecodeManifest(data)
	})
}

// drainView runs every decoder of a parsed block over all its rows:
// tuples (get), the column-run decode (compaction) and the batch fill.
// None may panic or read outside the payload, whatever the string
// offsets hold.
func drainView(v *blockView) {
	_, _ = v.tuples(nil, 0, v.rows)
	var run colRun
	_ = run.addBlock(v, 0, v.rows)
	cols := make([]int, len(v.kinds))
	for c := range cols {
		cols[c] = c
	}
	typed := colbatch.New(len(v.kinds), v.rows)
	typed.Configure(0, v.kinds, v.enums)
	_ = v.fill(typed, cols, 0, v.rows)
	for j := 0; j < typed.Len(); j++ {
		_ = typed.Ref(j) // a slot past 31 bits would panic here
	}
}

func FuzzOpenSSTable(f *testing.F) {
	dir := f.TempDir()
	seed := func(name string, run *colRun, lo, hi int) []byte {
		tbl, err := writeSSTable(dir, name, run, lo, hi, nil)
		if err != nil {
			f.Fatal(err)
		}
		tbl.close()
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	raw := seed("seed.sst", runOf(f, ituple, [2]int{0, 1}, [2]int{2, 2}), 0, 3)
	f.Add(raw)
	f.Add(raw[:len(raw)-5])
	var mixed [][2]int // every kind; kept small, the fuzzer minimizes what it keeps
	for i := 0; i < 9; i++ {
		mixed = append(mixed, [2]int{3 + 2*i, i})
	}
	f.Add(seed("mixed.sst", runOf(f, mixedTuple, mixed...), 3, 4+2*len(mixed)))
	// The previous format: same trailer, per-record frames after the magic.
	f.Add(append([]byte("PRSST001"), raw[len(sstMagic):]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.sst")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tb, err := openSSTable(path, nil)
		if err != nil {
			return
		}
		defer tb.close()
		// An accepted table must serve its read paths without panicking.
		var sc blockScanner
		_, _ = tb.scanBlocks(&sc, tb.lo, tb.hi, func(v *blockView, r, end int) (bool, error) {
			drainView(v)
			return true, nil
		})
		_, _ = tb.scanBlocks(&sc, tb.lo+1, tb.hi-1, func(*blockView, int, int) (bool, error) { return true, nil })
		_, _, _ = tb.get(tb.lo, nil)
		for _, ref := range tb.blocks {
			_, _, _ = tb.get(ref.first, nil)
			_, _, _ = tb.get(ref.first+1, nil)
		}
		_, _, _ = tb.lookupKey(ikey(1))
	})
}

// FuzzDecodeBlock feeds arbitrary bytes to the block decoder as a frame
// payload, under the column kinds of the seed blocks: a truncated or
// bit-flipped block must be refused (or decode to something harmless),
// never panic or over-read.
func FuzzDecodeBlock(f *testing.F) {
	var rows [][2]int
	for i := 0; i < 5; i++ {
		rows = append(rows, [2]int{10 + 3*i, i})
	}
	run := runOf(f, mixedTuple, rows...)
	kinds, enums := run.kinds, run.enums
	frame, err := appendBlock(nil, run, []int{0, 1, 2, 3, 4})
	if err != nil {
		f.Fatal(err)
	}
	payload := frame[frameHeader:]
	f.Add(payload)
	f.Add(payload[:len(payload)-7])
	f.Add(payload[:blockHeader])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var v blockView
		if err := v.parse(data, kinds, enums); err != nil {
			return
		}
		if v.rows > 1<<16 {
			return // the decoders allocate per row; parse already bounded rows by the payload
		}
		if err := v.checkSlots(blockRef{first: v.slot(0), rows: v.rows}, maxSlot+1); err != nil {
			return
		}
		drainView(&v)
		_ = v.search(v.slot(v.rows-1) + 1)
	})
}
