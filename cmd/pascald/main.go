// Command pascald serves a PASCAL/R database over TCP: the binary
// request protocol on -addr, and HTTP monitoring (/metrics,
// /processlist) on -http. SIGINT/SIGTERM trigger a graceful shutdown —
// accepts stop, sessions drain their in-flight request, background
// statistics work quiesces — with a bounded grace period after which
// running statements are cancelled.
//
// Usage:
//
//	pascald -addr :7583 -http :7584 -university 200
//	pascald -addr 127.0.0.1:7583 -f schema.pas -f data.pas -max-sessions 64
//	pascald -data /var/lib/pascald -addr :7583
//
// With -data the database is durable: the directory is opened (or
// created) and recovered to its last durable state, every mutation is
// write-ahead logged, relation contents spill to on-disk SSTables, and
// shutdown takes a final checkpoint. -f scripts still run on startup —
// on a recovered database re-declaring an existing TYPE or VAR is an
// error, so either seed once into an empty directory or serve -data
// alone afterwards.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pascalr"
	"pascalr/internal/server"
	"pascalr/internal/workload"
)

type fileList []string

func (f *fileList) String() string     { return strings.Join(*f, ",") }
func (f *fileList) Set(s string) error { *f = append(*f, s); return nil }

func main() {
	var files fileList
	addr := flag.String("addr", "127.0.0.1:7583", "TCP listen address for the binary protocol")
	httpAddr := flag.String("http", "", "HTTP monitoring address (empty = disabled)")
	maxSessions := flag.Int("max-sessions", server.DefaultMaxSessions, "maximum concurrent sessions")
	university := flag.Int("university", 0, "populate the Figure 1 sample database at this scale")
	grace := flag.Duration("grace", 10*time.Second, "graceful-shutdown drain budget")
	dataDir := flag.String("data", "", "durable data directory (empty = in-memory)")
	noFsync := flag.Bool("no-fsync", false, "with -data: skip the per-record WAL fsync")
	slowQuery := flag.Duration("slow-query", 0, "log statements slower than this threshold, e.g. 100ms (0 = disabled)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fatal(fmt.Errorf("bad -log-format %q, want text or json", *logFormat))
	}
	logger := slog.New(handler)

	var db *pascalr.Database
	if *dataDir != "" {
		var opts []pascalr.DirOption
		if *noFsync {
			opts = append(opts, pascalr.WithFsyncNever())
		}
		var err error
		if db, err = pascalr.OpenDir(*dataDir, opts...); err != nil {
			fatal(err)
		}
		defer db.Close()
		fmt.Printf("recovered durable database in %s\n", *dataDir)
	} else {
		db = pascalr.New()
	}
	if *university > 0 {
		script, err := workload.UniversityScript(*university)
		if err != nil {
			fatal(err)
		}
		if err := db.Exec(script); err != nil {
			fatal(err)
		}
		fmt.Printf("loaded Figure 1 university database at scale %d\n", *university)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			fatal(err)
		}
		if err := db.Exec(string(src)); err != nil {
			fatal(fmt.Errorf("%s: %w", f, err))
		}
	}

	srv := server.New(db, server.Config{
		Addr:        *addr,
		MonitorAddr: *httpAddr,
		MaxSessions: *maxSessions,
		Logger:      logger,
		SlowQuery:   *slowQuery,
	})
	if err := srv.Start(); err != nil {
		fatal(err)
	}
	fmt.Printf("pascald listening on %s", srv.Addr())
	if m := srv.MonitorAddr(); m != nil {
		fmt.Printf(" (monitor http://%s)", m)
	}
	fmt.Println()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("pascald: draining sessions")
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "pascald: shutdown:", err)
		os.Exit(1)
	}
	fmt.Println("pascald: stopped")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
