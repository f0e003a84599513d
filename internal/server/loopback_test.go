package server

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"pascalr"
	"pascalr/client"
	"pascalr/internal/enginetest"
	"pascalr/internal/workload"
)

// twinDBs builds two databases from the same generated script. The
// identical mutation history gives them identical live statistics, so
// both plan and count identically — the precondition for comparing
// counter fingerprints across the in-process and loopback legs.
func twinDBs(t testing.TB, scale int) (*pascalr.Database, *pascalr.Database) {
	t.Helper()
	script, err := workload.UniversityScript(scale)
	if err != nil {
		t.Fatal(err)
	}
	local, err := pascalr.Open(script)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := pascalr.Open(script)
	if err != nil {
		t.Fatal(err)
	}
	return local, remote
}

// TestLoopbackMatrix runs queries under all 32 strategy combinations
// through a real TCP loopback connection and in process against a twin
// database, requiring bit-identical results and counter fingerprints,
// both materialized (Query) and streamed through a prepared cursor
// fetched one and three rows at a time.
// This is the serving-layer leg of the enginetest differential matrix:
// it proves the protocol encode/decode, the session option plumbing,
// and the server execution path add nothing and lose nothing.
func TestLoopbackMatrix(t *testing.T) {
	local, remoteDB := twinDBs(t, 25)
	srv := New(remoteDB, Config{Addr: "127.0.0.1:0", MaxSessions: 4})
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
	conn, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx := context.Background()
	queries := enginetest.UniversityQueries
	for i, strat := range enginetest.StrategySets() {
		costBased := (i/2)%2 == 1 // alternate planners across the matrix
		for _, q := range []enginetest.QueryTest{queries[i%len(queries)], queries[(i+7)%len(queries)]} {
			label := fmt.Sprintf("strat=%v cost=%v query=%s", strat, costBased, q.Name)

			localOpts := []pascalr.Option{pascalr.WithStrategies(pascalr.Strategy(strat))}
			if costBased {
				localOpts = append(localOpts, pascalr.WithCostBased())
			}
			local.ResetStats()
			want, err := local.QueryContext(ctx, q.Src, localOpts...)
			if err != nil {
				t.Fatalf("%s: local: %v", label, err)
			}
			fpLocal := local.StatsFingerprint()

			if err := conn.ResetStats(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got, err := conn.Query(q.Src, client.Options{
				HasStrategies: true, Strategies: uint8(strat),
				HasCostBased: true, CostBased: costBased,
			})
			if err != nil {
				t.Fatalf("%s: loopback: %v", label, err)
			}
			fpRemote, err := conn.StatsFingerprint()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}

			if !reflect.DeepEqual(got.Columns, want.Columns()) {
				t.Fatalf("%s: columns %v != %v", label, got.Columns, want.Columns())
			}
			if !reflect.DeepEqual(got.Rows, want.Rows()) {
				t.Fatalf("%s: loopback rows diverge from in-process rows", label)
			}
			if fpLocal != fpRemote {
				t.Fatalf("%s: counter fingerprints diverge:\n  local:  %s\n  remote: %s", label, fpLocal, fpRemote)
			}

			// The cursor leg: a prepared statement drained through
			// column-major row batches of one and of three rows.
			fetch := 1 + 2*(i%2)
			lstmt, err := local.Prepare(q.Src, localOpts...)
			if err != nil {
				t.Fatalf("%s: local prepare: %v", label, err)
			}
			local.ResetStats()
			lrows, err := lstmt.Rows(ctx)
			if err != nil {
				t.Fatalf("%s: local cursor: %v", label, err)
			}
			wantRows := [][]any{}
			for lrows.Next() {
				wantRows = append(wantRows, lrows.Values())
			}
			if err := lrows.Err(); err != nil {
				t.Fatalf("%s: local cursor: %v", label, err)
			}
			lrows.Close()
			fpLocal = local.StatsFingerprint()

			rstmt, err := conn.Prepare(q.Src, client.Options{
				HasStrategies: true, Strategies: uint8(strat),
				HasCostBased: true, CostBased: costBased,
			})
			if err != nil {
				t.Fatalf("%s: prepare: %v", label, err)
			}
			if err := conn.ResetStats(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			rrows, err := rstmt.Execute()
			if err != nil {
				t.Fatalf("%s: execute: %v", label, err)
			}
			rrows.FetchSize = fetch
			gotRows := [][]any{}
			for rrows.Next() {
				gotRows = append(gotRows, rrows.Values())
			}
			if err := rrows.Err(); err != nil {
				t.Fatalf("%s: loopback cursor: %v", label, err)
			}
			if fpRemote, err = conn.StatsFingerprint(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := rstmt.Close(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(gotRows, wantRows) {
				t.Fatalf("%s: fetch size %d: loopback cursor rows diverge from in-process rows", label, fetch)
			}
			if fpLocal != fpRemote {
				t.Fatalf("%s: fetch size %d: cursor fingerprints diverge:\n  local:  %s\n  remote: %s", label, fetch, fpLocal, fpRemote)
			}
		}
	}
}

// TestLoopbackPreparedTwice: a statement prepared over the wire and
// executed twice matches the in-process prepared statement execution —
// results and fingerprints — both times, proving plan reuse behaves
// identically behind the protocol.
func TestLoopbackPreparedTwice(t *testing.T) {
	local, remoteDB := twinDBs(t, 25)
	srv := New(remoteDB, Config{Addr: "127.0.0.1:0", MaxSessions: 4})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	conn, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const q = `[<e.ename, c.cnr> OF EACH e IN employees, EACH c IN courses, EACH t IN timetable:
		(e.enr = t.tenr) AND (c.cnr = t.tcnr)]`
	ctx := context.Background()

	localStmt, err := local.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	remoteStmt, err := conn.Prepare(q, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		// Local leg streams through the same cursor path the server uses.
		local.ResetStats()
		lrows, err := localStmt.Rows(ctx)
		if err != nil {
			t.Fatalf("round %d: local: %v", round, err)
		}
		var want [][]any
		for lrows.Next() {
			want = append(want, lrows.Values())
		}
		if err := lrows.Err(); err != nil {
			t.Fatalf("round %d: local cursor: %v", round, err)
		}
		lrows.Close()
		fpLocal := local.StatsFingerprint()

		if err := conn.ResetStats(); err != nil {
			t.Fatal(err)
		}
		rrows, err := remoteStmt.Execute()
		if err != nil {
			t.Fatalf("round %d: execute: %v", round, err)
		}
		rrows.FetchSize = 3 // force several fetch round-trips
		var got [][]any
		for rrows.Next() {
			got = append(got, rrows.Values())
		}
		if err := rrows.Err(); err != nil {
			t.Fatalf("round %d: loopback cursor: %v", round, err)
		}
		fpRemote, err := conn.StatsFingerprint()
		if err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: loopback rows diverge from in-process rows", round)
		}
		if fpLocal != fpRemote {
			t.Fatalf("round %d: fingerprints diverge:\n  local:  %s\n  remote: %s", round, fpLocal, fpRemote)
		}
	}
	if err := remoteStmt.Close(); err != nil {
		t.Fatal(err)
	}
}
