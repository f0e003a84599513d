package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pascalr/internal/colbatch"
	"pascalr/internal/value"
)

// mixedTuple is a row of every kind the block format stores: int, bool,
// enum, ref, two strings (one sometimes empty) and an int past 32 bits.
func mixedTuple(i int) []value.Value {
	name := ""
	if i%7 != 0 {
		name = fmt.Sprintf("%s%d", strings.Repeat("n", i%11), i)
	}
	return []value.Value{
		value.Int(int64(i*7 - 50)),
		value.Bool(i%3 == 0),
		value.Enum("colour", i%5),
		value.Ref(2, i, 0),
		value.String_(name),
		value.Int(int64(i)<<33 - 1),
		value.String_(fmt.Sprintf("room-%d", i%13)),
	}
}

// dumpBatches renders what ScanBatchesInto hands to flush over [lo, hi):
// per batch the slots and every materialized column, unboxed or boxed as
// the batch was configured.
func dumpBatches(t *testing.T, be *Disk, lo, hi int, cols []int, kinds []value.Kind, enums []string, capacity int) string {
	t.Helper()
	ncols := len(mixedTuple(0))
	b := colbatch.New(ncols, capacity)
	b.Configure(7, kinds, enums)
	var out strings.Builder
	err := be.ScanBatchesInto(lo, hi, cols, b, func() error {
		fmt.Fprintf(&out, "batch %v\n", b.Slots())
		want := cols
		if cols == nil {
			want = make([]int, ncols)
			for c := range want {
				want[c] = c
			}
		}
		for _, c := range want {
			if b.IsOrd(c) {
				fmt.Fprintf(&out, " ord%d %v\n", c, b.Ords(c))
			} else {
				fmt.Fprintf(&out, " val%d %v\n", c, b.Vals(c))
			}
		}
		b.Reset()
		return nil
	})
	if err != nil {
		t.Fatalf("ScanBatchesInto(%d, %d, %v): %v", lo, hi, cols, err)
	}
	return out.String()
}

func dumpScan(t *testing.T, be *Disk, lo, hi int) string {
	t.Helper()
	var out strings.Builder
	err := be.Scan(lo, hi, func(si int, tuple []value.Value) bool {
		fmt.Fprintf(&out, "%d:%v\n", si, tuple)
		return true
	})
	if err != nil {
		t.Fatalf("Scan(%d, %d): %v", lo, hi, err)
	}
	return out.String()
}

// dumpTypedBatches renders a ScanBatchesInto of every column over
// [lo, hi), into a batch configured with kinds and enums (int-backed
// columns unboxed), in dumpScan's format: each row is reconstructed from
// the batch's columns.
func dumpTypedBatches(t *testing.T, be *Disk, lo, hi int, kinds []value.Kind, enums []string) string {
	t.Helper()
	b := colbatch.New(len(kinds), 100)
	b.Configure(7, kinds, enums)
	row := make([]value.Value, len(kinds))
	var out strings.Builder
	err := be.ScanBatchesInto(lo, hi, nil, b, func() error {
		for i := 0; i < b.Len(); i++ {
			for c := range row {
				row[c] = b.ColVal(c, i)
			}
			fmt.Fprintf(&out, "%d:%v\n", b.Slots()[i], row)
		}
		b.Reset()
		return nil
	})
	if err != nil {
		t.Fatalf("ScanBatchesInto(%d, %d): %v", lo, hi, err)
	}
	return out.String()
}

// compareBackends demands that mem and disk answer every read of the
// store identically: full and sharded scans, batch fills
// under random shard bounds, column masks (nil and empty included),
// batch capacities and both batch configurations, and Get of every slot.
func compareBackends(t *testing.T, stage string, rng *rand.Rand, mem, disk *Disk) {
	t.Helper()
	span := mem.SlotSpan()
	if disk.SlotSpan() != span {
		t.Fatalf("%s: slot span %d on disk, %d in memory", stage, disk.SlotSpan(), span)
	}
	kinds, enums, err := columnsOf(mixedTuple(0))
	if err != nil {
		t.Fatal(err)
	}
	masks := [][]int{nil, {}, {0}, {4}, {2, 3}, {1, 4, 5, 6}, {6, 0}}
	for trial := 0; trial < 60; trial++ {
		lo, hi := -3, span+5
		if trial > 0 {
			lo = rng.Intn(span + 1)
			hi = lo + rng.Intn(span+2-lo)
		}
		if m, d := dumpScan(t, mem, lo, hi), dumpScan(t, disk, lo, hi); m != d {
			t.Fatalf("%s: Scan(%d, %d) diverged:\nmem:\n%s\ndisk:\n%s", stage, lo, hi, m, d)
		}
		cols := masks[trial%len(masks)]
		capacity := []int{1024, 5, 300}[trial%3]
		bk, be := kinds, enums
		if trial%4 == 3 {
			bk, be = nil, nil // an unconfigured batch boxes every column
		}
		m := dumpBatches(t, mem, lo, hi, cols, bk, be, capacity)
		d := dumpBatches(t, disk, lo, hi, cols, bk, be, capacity)
		if m != d {
			t.Fatalf("%s: ScanBatchesInto(%d, %d, %v) cap %d diverged:\nmem:\n%s\ndisk:\n%s", stage, lo, hi, cols, capacity, m, d)
		}
	}
	for si := -1; si <= span; si++ {
		mt, mok, merr := mem.Get(si)
		dt, dok, derr := disk.Get(si)
		if merr != nil || derr != nil || mok != dok || fmt.Sprint(mt) != fmt.Sprint(dt) {
			t.Fatalf("%s: Get(%d) diverged: mem %v %v %v, disk %v %v %v", stage, si, mt, mok, merr, dt, dok, derr)
		}
	}
}

// TestDiskBlockDifferential applies one seeded history — inserts of a
// mixed-kind schema, deletes, a Reset — to a store with no directory and
// to one whose tiny memtable spills constantly, and compares every read
// path after
// the history, after Flush, after compaction (tables grow past one
// block), after reopening from the checkpoint metadata, and after
// deleting out of the reopened multi-block tables.
func TestDiskBlockDifferential(t *testing.T) {
	dir := t.TempDir()
	opts := Options{MemtableEntries: 16, Fsync: SyncNever}
	cache := NewBlockCache(1 << 20)
	mem := NewMemory()
	disk := NewDisk(dir, 3, opts, cache)
	defer func() { disk.Close() }()
	rng := rand.New(rand.NewSource(12))

	live := map[int]int{} // key -> slot
	next := 0
	apply := func(steps int) {
		for ; steps > 0; steps-- {
			if rng.Intn(4) == 0 && len(live) > 0 {
				k := rng.Intn(next)
				si, ok := live[k]
				if !ok {
					continue
				}
				if err := mem.Delete(si, ikey(k)); err != nil {
					t.Fatal(err)
				}
				if err := disk.Delete(si, ikey(k)); err != nil {
					t.Fatal(err)
				}
				delete(live, k)
				continue
			}
			ms, err := mem.Append(ikey(next), mixedTuple(next))
			if err != nil {
				t.Fatal(err)
			}
			ds, err := disk.Append(ikey(next), mixedTuple(next))
			if err != nil {
				t.Fatal(err)
			}
			if ms != ds {
				t.Fatalf("append %d landed on slot %d in memory, %d on disk", next, ms, ds)
			}
			live[next] = ms
			next++
		}
	}

	apply(150)
	if err := mem.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := disk.Reset(); err != nil {
		t.Fatal(err)
	}
	live = map[int]int{}
	apply(2500)
	compareBackends(t, "history", rng, mem, disk)

	if err := disk.Flush(); err != nil {
		t.Fatal(err)
	}
	compareBackends(t, "flush", rng, mem, disk)

	for round := 0; disk.NeedsCompaction(); round++ {
		if round > 100 {
			t.Fatal("compaction does not converge")
		}
		if err := disk.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	multi := false
	for _, tb := range disk.tables {
		multi = multi || len(tb.blocks) > 1
	}
	if !multi {
		t.Fatal("no table grew past one block; the history is too short to test block bounds")
	}
	compareBackends(t, "compact", rng, mem, disk)

	meta := disk.Meta()
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenDisk(dir, 3, opts, cache, meta)
	if err != nil {
		t.Fatal(err)
	}
	disk = reopened
	compareBackends(t, "reopen", rng, mem, disk)

	apply(400) // tombstones inside multi-block tables, rows back in the memtable
	compareBackends(t, "reopen+history", rng, mem, disk)
}

// TestOpenSSTableRejectsOtherFormats: a file of the previous format, and
// a block whose column kinds disagree with the footer, are refused with
// an error that says so.
func TestOpenSSTableRejectsOtherFormats(t *testing.T) {
	dir := t.TempDir()
	entries := []SSEntry{
		{Si: 0, Enc: ikey(1), Tuple: ituple(1)},
		{Si: 2, Enc: ikey(2), Tuple: ituple(2)},
	}
	tbl, err := writeSSTable(dir, "t.sst", entries, 0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	block := tbl.blocks[0]
	tbl.close()
	raw, err := os.ReadFile(filepath.Join(dir, "t.sst"))
	if err != nil {
		t.Fatal(err)
	}

	old := append([]byte("PRSST001"), raw[len(sstMagic):]...)
	oldPath := filepath.Join(dir, "old.sst")
	if err := os.WriteFile(oldPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSSTable(oldPath, nil); err == nil || !strings.Contains(err.Error(), "PRSST001") {
		t.Fatalf("opening a PRSST001 file: %v", err)
	}

	// Flip the block's first column kind from int to bool and re-seal the
	// frame, so that only the disagreement with the footer is wrong.
	bad := append([]byte(nil), raw...)
	frame := bad[block.off : block.off+int64(block.length)]
	frame[frameHeader+blockHeader] = byte(value.KindBool)
	sealFrame(frame, 0)
	badPath := filepath.Join(dir, "bad.sst")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	tb, err := openSSTable(badPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.close()
	if _, _, err := tb.get(0); err == nil || !strings.Contains(err.Error(), "footer") {
		t.Fatalf("get from a block disagreeing with the footer: %v", err)
	}
	var sc blockScanner
	if _, err := tb.scanBlocks(&sc, 0, 3, func(*blockView, int, int) (bool, error) { return true, nil }); err == nil {
		t.Fatal("scan of a block disagreeing with the footer succeeded")
	}

	// A writer handed records of differing shapes refuses them.
	mixed := []SSEntry{entries[0], {Si: 2, Enc: ikey(2), Tuple: []value.Value{value.String_("x"), value.String_("y")}}}
	if _, err := writeSSTable(dir, "mixed.sst", mixed, 0, 3, nil); err == nil {
		t.Fatal("writing a column of mixed kinds succeeded")
	}
}
