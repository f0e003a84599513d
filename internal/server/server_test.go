package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"pascalr"
	"pascalr/client"
	"pascalr/internal/protocol"
	"pascalr/internal/workload"
)

// newTestServer starts a server over a university database, with the
// monitor bound when monitor is true. Cleanup shuts it down.
func newTestServer(t testing.TB, scale, maxSessions int, monitor bool) (*Server, *pascalr.Database) {
	t.Helper()
	script, err := workload.UniversityScript(scale)
	if err != nil {
		t.Fatal(err)
	}
	db, err := pascalr.Open(script)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Addr: "127.0.0.1:0", MaxSessions: maxSessions}
	if monitor {
		cfg.MonitorAddr = "127.0.0.1:0"
	}
	return startServer(t, db, cfg), db
}

// startServer starts a server over db. Cleanup shuts it down.
func startServer(t testing.TB, db *pascalr.Database, cfg Config) *Server {
	t.Helper()
	srv := New(db, cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv
}

func dial(t testing.TB, srv *Server) *client.Conn {
	t.Helper()
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestServerBasics: handshake, ping, exec, and a query whose result
// matches the in-process evaluation on the same database.
func TestServerBasics(t *testing.T) {
	srv, db := newTestServer(t, 20, 4, false)
	c := dial(t, srv)
	if c.SessionID() == 0 {
		t.Fatal("no session id assigned")
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	const q = `[<e.enr, e.ename> OF EACH e IN employees: (e.estatus = professor)]`
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(q, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Columns, want.Columns()) {
		t.Fatalf("columns = %v, want %v", got.Columns, want.Columns())
	}
	if !reflect.DeepEqual(got.Rows, want.Rows()) {
		t.Fatalf("rows = %v, want %v", got.Rows, want.Rows())
	}
	// A mutation through the wire is visible to the next query.
	if err := c.Exec("employees :+ [<98, 'zed', professor>];"); err != nil {
		t.Fatal(err)
	}
	after, err := c.Query(q, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) != len(want.Rows())+1 {
		t.Fatalf("after insert: %d rows, want %d", len(after.Rows), len(want.Rows())+1)
	}
	// A bad query surfaces as an error frame, and the connection stays
	// usable afterwards.
	if _, err := c.Query("[<nonsense", client.Options{}); err == nil {
		t.Fatal("malformed query did not error")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after query error: %v", err)
	}
}

// TestSetOptionRejectsWorkerCount: the server has no worker-count
// option, so "parallelism" is refused as an unknown key with a
// bad-request code, and the session stays usable.
func TestSetOptionRejectsWorkerCount(t *testing.T) {
	srv, _ := newTestServer(t, 5, 4, false)
	c := dial(t, srv)
	err := c.SetOption("parallelism", 4)
	var se *client.Error
	if !errors.As(err, &se) || se.Code != protocol.CodeBadRequest || !strings.Contains(se.Message, "unknown option") {
		t.Fatalf("SetOption(parallelism) = %v, want a bad-request unknown-option error", err)
	}
	if err := c.SetOption("max_ref_tuples", 1<<20); err != nil {
		t.Fatalf("known option refused after the error: %v", err)
	}
}

// TestWireReferenceTupleBudget: the reference-tuple budget reaches the
// engine both as a per-call option in the QueryOpts block and as a
// session default, and a per-call budget overrides the default.
func TestWireReferenceTupleBudget(t *testing.T) {
	srv, _ := newTestServer(t, 5, 4, false)
	c := dial(t, srv)
	// Two indirect joins, so the combination phase joins once and checks
	// the budget there.
	const q = `[<e.ename, c.cnr> OF EACH e IN employees, EACH t IN timetable, EACH c IN courses:
		(e.enr = t.tenr) AND (t.tcnr = c.cnr)]`
	const budgetErr = "exceeded 1 reference tuples"
	if _, err := c.Query(q, client.Options{}); err != nil {
		t.Fatalf("unbudgeted query: %v", err)
	}
	if _, err := c.Query(q, client.Options{MaxRefTuples: 1}); err == nil || !strings.Contains(err.Error(), budgetErr) {
		t.Fatalf("per-call budget 1: err = %v, want the budget error", err)
	}
	if _, err := c.Query(q, client.Options{}); err != nil {
		t.Fatalf("per-call budget stuck to the session: %v", err)
	}
	if err := c.SetOption("max_ref_tuples", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(q, client.Options{}); err == nil || !strings.Contains(err.Error(), budgetErr) {
		t.Fatalf("session budget 1: err = %v, want the budget error", err)
	}
	if _, err := c.Query(q, client.Options{MaxRefTuples: 1 << 30}); err != nil {
		t.Fatalf("per-call budget over a session budget of 1: %v", err)
	}
}

// TestAdmissionControl: sessions beyond MaxSessions are rejected with
// the typed error immediately at dial, and a freed slot is reusable.
func TestAdmissionControl(t *testing.T) {
	srv, _ := newTestServer(t, 5, 2, false)
	c1 := dial(t, srv)
	c2 := dial(t, srv)
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Dial(srv.Addr().String()); !errors.Is(err, client.ErrTooManySessions) {
		t.Fatalf("third dial: got %v, want ErrTooManySessions", err)
	}
	c2.Close()
	// The server unregisters the session when its goroutine notices the
	// close; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		c3, err := client.Dial(srv.Addr().String())
		if err == nil {
			defer c3.Close()
			break
		}
		if !errors.Is(err, client.ErrTooManySessions) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after connection close")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestKillAndProcessList: sessions appear in the process list; KILL
// from another connection terminates the victim.
func TestKillAndProcessList(t *testing.T) {
	srv, _ := newTestServer(t, 5, 4, false)
	victim := dial(t, srv)
	admin := dial(t, srv)
	pl, err := admin.ProcessList()
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Rows) != 2 {
		t.Fatalf("process list has %d sessions, want 2", len(pl.Rows))
	}
	if got := pl.Columns; !reflect.DeepEqual(got, []string{"id", "addr", "state", "query", "age_ms", "trace_id"}) {
		t.Fatalf("process list columns = %v", got)
	}
	ids := map[int64]bool{}
	for _, row := range pl.Rows {
		ids[row[0].(int64)] = true
	}
	if !ids[int64(victim.SessionID())] || !ids[int64(admin.SessionID())] {
		t.Fatalf("process list ids %v missing a session", ids)
	}
	if err := admin.Kill(victim.SessionID()); err != nil {
		t.Fatal(err)
	}
	// The victim's connection is closed server-side.
	deadline := time.Now().Add(2 * time.Second)
	for victim.Ping() == nil {
		if time.Now().After(deadline) {
			t.Fatal("victim survived KILL")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Killing an unknown session reports an error but keeps the
	// connection usable.
	if err := admin.Kill(99999); err == nil {
		t.Fatal("kill of unknown session did not error")
	}
	if err := admin.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelMidFetch: a cursor abandoned by Cancel reports the typed
// cancellation error on its next fetch, and the session survives.
func TestCancelMidFetch(t *testing.T) {
	srv, _ := newTestServer(t, 20, 4, false)
	c := dial(t, srv)
	stmt, err := c.Prepare(`[<e.enr, e.ename> OF EACH e IN employees: (e.enr >= 1)]`, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.Execute()
	if err != nil {
		t.Fatal(err)
	}
	rows.FetchSize = 1
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if err := c.Cancel(); err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, client.ErrCancelled) {
		t.Fatalf("after Cancel: got %v, want ErrCancelled", err)
	}
	// The statement can be re-executed on the same session.
	rows2, err := stmt.Execute()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows2.Next() {
		n++
	}
	if err := rows2.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("re-executed cursor yielded nothing")
	}
	if err := stmt.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMonitorEndpoints: /metrics.json exposes session gauges, live
// engine counters, and per-relation statistics; /processlist mirrors
// the binary op.
func TestMonitorEndpoints(t *testing.T) {
	srv, _ := newTestServer(t, 20, 4, true)
	c := dial(t, srv)
	if _, err := c.Query(`[<e.enr> OF EACH e IN employees: (e.enr >= 1)]`, client.Options{}); err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.MonitorAddr().String()
	resp, err := http.Get(base + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Sessions struct {
			Active   int    `json:"active"`
			Accepted uint64 `json:"accepted"`
			Max      int    `json:"max"`
		} `json:"sessions"`
		Counters struct {
			TotalScans int `json:"TotalScans"`
		} `json:"counters"`
		Tables []struct {
			Name string `json:"name"`
			Rows int64  `json:"rows"`
		} `json:"tables"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Sessions.Active != 1 || m.Sessions.Accepted == 0 || m.Sessions.Max != 4 {
		t.Fatalf("session gauges = %+v", m.Sessions)
	}
	if m.Counters.TotalScans == 0 {
		t.Fatal("metrics counters show no scans after a query")
	}
	if len(m.Tables) != 4 {
		t.Fatalf("metrics report %d tables, want 4", len(m.Tables))
	}
	for _, tb := range m.Tables {
		if tb.Rows == 0 {
			t.Fatalf("table %s reports 0 rows", tb.Name)
		}
	}
	resp2, err := http.Get(base + "/processlist")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var pl []struct {
		ID    uint64 `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&pl); err != nil {
		t.Fatal(err)
	}
	if len(pl) != 1 || pl[0].ID != c.SessionID() {
		t.Fatalf("processlist = %+v", pl)
	}
}

// TestGracefulShutdownNoLeaks: shutting down with live sessions, an
// open mid-fetch cursor, and freshly scheduled statistics rebuilds
// terminates every goroutine the server started.
func TestGracefulShutdownNoLeaks(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()

	script, err := workload.UniversityScript(30)
	if err != nil {
		t.Fatal(err)
	}
	db, err := pascalr.Open(script)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{Addr: "127.0.0.1:0", MaxSessions: 8, MonitorAddr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	c1, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// c1 leaves a cursor open mid-fetch.
	stmt, err := c1.Prepare(`[<e.enr> OF EACH e IN employees: (e.enr >= 1)]`, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.Execute()
	if err != nil {
		t.Fatal(err)
	}
	rows.FetchSize = 1
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	// c2 churns mutations so drift-triggered rebuilds are in flight or
	// pending when shutdown starts.
	for i := 0; i < 60; i++ {
		if err := c2.Exec(fmt.Sprintf("papers :+ [<%d, 1980, 'shutdown-%d'>];", i%20+1, i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("%d sessions survived shutdown", n)
	}
	c1.Close()
	c2.Close()
	// New connections are refused outright.
	if _, err := client.Dial(srv.Addr().String()); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
	// Every goroutine the server and its sessions started must be gone.
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExecDeleteProbeErrorFrame: a delete whose key probe cannot read
// the SSTable holding the key reaches the client as an error frame, not
// as the OK of a no-op, and the session stays usable. The block cache
// is off so the probe reads the file itself.
func TestExecDeleteProbeErrorFrame(t *testing.T) {
	dir := t.TempDir()
	db, err := pascalr.OpenDir(dir, pascalr.WithBlockCacheBytes(-1), pascalr.WithCheckpointWALBytes(-1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.MustExec(`TYPE idtype = 1..99;
VAR r : RELATION <id> OF RECORD id : idtype END;
r :+ [<1>, <2>];`)
	if err := db.Checkpoint(); err != nil { // flushes r into an SSTable
		t.Fatal(err)
	}
	// Keep only the table's 8-byte magic.
	tables, err := filepath.Glob(filepath.Join(dir, "r0-*.sst"))
	if err != nil || len(tables) != 1 {
		t.Fatalf("tables = %v (%v), want one", tables, err)
	}
	if err := os.Truncate(tables[0], 8); err != nil {
		t.Fatal(err)
	}
	c := dial(t, startServer(t, db, Config{Addr: "127.0.0.1:0", MaxSessions: 2}))
	var se *client.Error
	if err := c.Exec("r :- [<1>];"); !errors.As(err, &se) {
		t.Fatalf("delete over an unreadable key probe = %v, want an error frame", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after the error frame: %v", err)
	}
}

// TestExecDeleteOverWire: a delete statement over the wire removes the
// element for the next query, and deleting the same key again is the
// OK of a no-op, not an error frame.
func TestExecDeleteOverWire(t *testing.T) {
	srv, _ := newTestServer(t, 20, 2, false)
	c := dial(t, srv)
	const q = `[<e.enr> OF EACH e IN employees: (e.enr = 1)]`
	before, err := c.Query(q, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Rows) != 1 {
		t.Fatalf("employee 1 before the delete: %d rows, want 1", len(before.Rows))
	}
	for i := range 2 { // the second delete finds the key absent
		if err := c.Exec("employees :- [<1>];"); err != nil {
			t.Fatalf("delete %d: %v", i+1, err)
		}
	}
	after, err := c.Query(q, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) != 0 {
		t.Fatalf("employee 1 after the delete: %d rows, want 0", len(after.Rows))
	}
}
