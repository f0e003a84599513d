package relation

// CloseWAL closes d's write-ahead log underneath it, so every later
// append fails: the fault TestWALFailureFailsStop injects, for tests
// outside the package.
func CloseWAL(d *DB) error { return d.dur.wal.Close() }
