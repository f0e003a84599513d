package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pascalr"
)

// userBytes sizes the live tuples of every relation by their native
// values: 8 bytes per integer, a string's length, one byte per boolean.
func userBytes(db *pascalr.Database) (int64, error) {
	var total int64
	for _, name := range db.Relations() {
		res, err := db.Dump(name)
		if err != nil {
			return 0, err
		}
		for _, row := range res.Rows() {
			for _, v := range row {
				switch x := v.(type) {
				case int64:
					total += 8
				case string:
					total += int64(len(x))
				default:
					total++
				}
			}
		}
	}
	return total, nil
}

// diskFootprint returns bytes under dir per byte of live user data, and
// how many SSTable files the directory holds.
func diskFootprint(db *pascalr.Database, dir string) (bytesPerUserByte, tables float64, err error) {
	user, err := userBytes(db)
	if err != nil {
		return 0, 0, err
	}
	var onDisk int64
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil // a table retired between listing and stat
		}
		if err != nil {
			return err
		}
		onDisk += info.Size()
		if strings.HasSuffix(path, ".sst") {
			tables++
		}
		return nil
	})
	return ratio(float64(onDisk), float64(user)), tables, err
}

// timeRecovery is recovery_s: OpenDir on the directory until the first
// query answers.
func timeRecovery(dir string, opts []pascalr.DirOption) (float64, error) {
	t0 := time.Now()
	db, err := pascalr.OpenDir(dir, opts...)
	if err != nil {
		return 0, err
	}
	defer db.Close()
	if _, err := db.Query(srcProfessors); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// recoveryCheck ends a disk workload. A read-only one is closed and its
// checkpointed image reopened. The mixed workload gets the crash-copy
// durability check: after the last acknowledgement and without Close,
// the data directory is copied, the copy opened (that open is
// recovery_s, with the live WAL to replay), and every acknowledged
// insert must be present in it and every acknowledged delete absent.
func recoveryCheck(inst *instance, out *outcome) error {
	if err := waitQuiesced(); err != nil {
		return err
	}
	extras := out.endToEnd
	if out.trace == "1" {
		extras = out.perLayer
	}
	put := func(name string, x float64) {
		extras[name] = summary{Value: x, Unit: unitOf(name), Min: x, Max: x, N: 1}
	}
	bytesPerUser, tables, err := diskFootprint(inst.db, inst.dir)
	if err != nil {
		return err
	}
	put("disk_bytes_per_user_byte", bytesPerUser)
	if out.trace != "0" {
		put("storage.tables_at_end", tables)
	}
	if !inst.sp.writer {
		if err := inst.db.Close(); err != nil {
			return err
		}
		s, err := timeRecovery(inst.dir, inst.sp.reopen)
		if err != nil {
			return err
		}
		put("recovery_s", s)
		return nil
	}

	crash := inst.dir + "-crashcopy"
	defer os.RemoveAll(crash)
	if err := copyDir(inst.dir, crash); err != nil {
		return err
	}
	t0 := time.Now()
	db, err := pascalr.OpenDir(crash, inst.sp.reopen...)
	if err != nil {
		out.fail("crash copy does not open: %v", err)
		return nil
	}
	defer db.Close()
	res, err := db.Query(`[<p.ptitle, p.penr> OF EACH p IN papers: (p.pyear <> 1977)]`)
	if err != nil {
		out.fail("crash copy does not answer: %v", err)
		return nil
	}
	put("recovery_s", time.Since(t0).Seconds())
	have := make(map[string]int64, res.Len())
	for _, row := range res.Rows() {
		have[row[0].(string)] = row[1].(int64)
	}
	lost, resurrected := 0, 0
	for _, w := range inst.ackers {
		for title, penr := range w.live {
			if got, ok := have[title]; !ok || got != int64(penr) {
				lost++
			}
		}
		for title := range w.gone {
			if _, ok := have[title]; ok {
				resurrected++
			}
		}
		out.attempted += len(w.live) + len(w.gone)
	}
	out.failed += lost + resurrected
	if lost+resurrected > 0 {
		out.fail("crash copy: %d acknowledged inserts missing, %d acknowledged deletes present", lost, resurrected)
	}
	out.notes = append(out.notes, fmt.Sprintf("crash-copy check: %d papers in the recovered copy, every acknowledged write accounted for: %v", len(have), lost+resurrected == 0))
	return nil
}
