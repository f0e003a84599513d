// Command pascalr is an interactive and batch front-end to the PASCAL/R
// query processor. It executes PASCAL/R scripts (TYPE/VAR declarations,
// :=, :+, :- statements) and evaluates selections, optionally printing
// EXPLAIN plans and cost statistics.
//
// Usage:
//
//	pascalr -f schema.pas -f data.pas -q "[<e.ename> OF EACH e IN employees: ...]"
//	pascalr -university 50 -q "..." -strategies s1+s3 -stats
//	pascalr -university 20 -i         # interactive: statements end with ';'
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"

	"pascalr"
	"pascalr/internal/obs"
	"pascalr/internal/workload"
)

type fileList []string

func (f *fileList) String() string     { return strings.Join(*f, ",") }
func (f *fileList) Set(s string) error { *f = append(*f, s); return nil }

func main() {
	var files fileList
	var indexes fileList
	flag.Var(&files, "f", "PASCAL/R script file (repeatable)")
	flag.Var(&indexes, "index", "permanent index rel.col (repeatable)")
	query := flag.String("q", "", "selection expression to evaluate")
	strategies := flag.String("strategies", "all", "strategy set: s0, all, or e.g. s1+s3")
	explain := flag.Bool("explain", false, "print the plan instead of evaluating")
	showStats := flag.Bool("stats", false, "print cost counters after each query")
	useBaseline := flag.Bool("baseline", false, "evaluate by tuple substitution instead of the engine")
	costBased := flag.Bool("cost", false, "plan from cardinality estimates instead of the static order")
	university := flag.Int("university", 0, "populate the Figure 1 sample database at this scale")
	interactive := flag.Bool("i", false, "read statements and queries from stdin")
	trace := flag.Bool("trace", false, "print each query's span tree (phase and scan/join timings) after execution")
	flag.Parse()

	strat, err := pascalr.ParseStrategy(*strategies)
	if err != nil {
		fatal(err)
	}

	db := pascalr.New()
	db.SetStrategies(strat)
	if *university > 0 {
		if err := loadUniversity(db, *university); err != nil {
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
	for _, ix := range indexes {
		rel, col, ok := strings.Cut(ix, ".")
		if !ok {
			fatal(fmt.Errorf("bad -index %q, want rel.col", ix))
		}
		if err := db.CreateIndex(rel, col); err != nil {
			fatal(err)
		}
	}

	runQuery := func(q string) {
		opts := []pascalr.Option{pascalr.WithStrategies(strat)}
		if *useBaseline {
			opts = append(opts, pascalr.WithBaseline())
		}
		if *costBased {
			opts = append(opts, pascalr.WithCostBased())
		}
		if *explain {
			out, err := db.Explain(q, opts...)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			fmt.Print(out)
			if !*useBaseline {
				// Execute once and report estimated vs actual
				// cardinalities per scan and join, so estimate quality is
				// visible next to the plan. Ctrl-C cancels the run.
				ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
				rep, err := db.ExplainAnalyze(ctx, q, opts...)
				stop()
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return
				}
				fmt.Println("-- executed --")
				fmt.Print(rep)
			}
			return
		}
		db.ResetStats()
		if *useBaseline {
			// The tuple-substitution oracle observes no context, so no
			// SIGINT handler is installed — Ctrl-C keeps its default
			// process-killing behaviour instead of being swallowed.
			res, err := db.Query(q, opts...)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			fmt.Print(res)
		} else {
			// Ctrl-C cancels the running query (and only it): the signal
			// context is cancelled by SIGINT and released when the query
			// finishes, so the next interrupt reaches the process again.
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
			var tr *obs.Trace
			if *trace {
				tr = obs.NewTrace("")
				ctx = obs.With(ctx, tr.Root())
			}
			err := streamQuery(ctx, db, q, opts)
			stop()
			if tr != nil {
				tr.Finish()
				fmt.Print(tr.Render())
			}
			if err != nil {
				if errors.Is(err, context.Canceled) {
					fmt.Fprintln(os.Stderr, "query cancelled")
				} else {
					fmt.Fprintln(os.Stderr, err)
				}
				return
			}
		}
		if *showStats {
			printStats(db.Stats())
		}
	}

	if *query != "" {
		runQuery(*query)
	}
	if *interactive {
		repl(db, runQuery)
	}
	if *query == "" && !*interactive && len(files) == 0 && *university == 0 {
		flag.Usage()
		os.Exit(2)
	}
}

// streamQuery evaluates q through the streaming cursor API, printing
// result tuples as the construction phase yields them — output starts
// before the full result is materialized, and a cancelled context stops
// mid-stream.
func streamQuery(ctx context.Context, db *pascalr.Database, q string, opts []pascalr.Option) error {
	rows, err := db.QueryRows(ctx, q, opts...)
	if err != nil {
		return err
	}
	defer rows.Close()
	cols := rows.Columns()
	fmt.Println(strings.Join(cols, "  "))
	dashes := make([]string, len(cols))
	for i, c := range cols {
		dashes[i] = strings.Repeat("-", len(c))
	}
	fmt.Println(strings.Join(dashes, "  "))
	n := 0
	for rows.Next() {
		parts := make([]string, 0, len(cols))
		for _, v := range rows.Values() {
			parts = append(parts, fmt.Sprintf("%v", v))
		}
		fmt.Println(strings.Join(parts, "  "))
		n++
	}
	if err := rows.Err(); err != nil {
		return err
	}
	fmt.Printf("(%d tuples)\n", n)
	return nil
}

func loadUniversity(db *pascalr.Database, scale int) error {
	// Render schema and data as one script and load it through the
	// public API, so the CLI exercises the same path users do.
	script, err := workload.UniversityScript(scale)
	if err != nil {
		return err
	}
	return db.Exec(script)
}

func printStats(st pascalr.Stats) {
	rels := make([]string, 0, len(st.ScansOf))
	for r := range st.ScansOf {
		rels = append(rels, r)
	}
	sort.Strings(rels)
	fmt.Printf("scans: total=%d", st.TotalScans)
	for _, r := range rels {
		fmt.Printf(" %s=%d", r, st.ScansOf[r])
	}
	fmt.Printf("\ntuples read=%d probes=%d comparisons=%d ref tuples=%d (peak %d)\n",
		st.TuplesRead, st.IndexProbes, st.Comparisons, st.RefTuples, st.PeakRefTuples)
	fmt.Printf("joins: hash=%d cartesian=%d\n", st.HashJoins, st.CartesianJoins)
	if len(st.PlanOrder) > 0 {
		fmt.Printf("scan order: %s\n", strings.Join(st.PlanOrder, " -> "))
	}
}

func repl(db *pascalr.Database, runQuery func(string)) {
	fmt.Println("PASCAL/R — statements end with ';', selections start with '[<'.")
	fmt.Println("Commands: \\q quit, \\d list relations, \\d NAME dump relation.")
	fmt.Println("Ctrl-C cancels the running query.")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("pascalr> ")
		} else {
			fmt.Print("     ... ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			switch {
			case trimmed == "\\q":
				return
			case trimmed == "\\d":
				for _, r := range db.Relations() {
					n, _ := db.RelationLen(r)
					fmt.Printf("%s (%d tuples)\n", r, n)
				}
			case strings.HasPrefix(trimmed, "\\d "):
				res, err := db.Dump(strings.TrimSpace(trimmed[3:]))
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
				} else {
					fmt.Print(res)
				}
			default:
				fmt.Fprintln(os.Stderr, "unknown command", trimmed)
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		full := strings.TrimSpace(buf.String())
		// A selection on its own evaluates as a query once brackets
		// balance; statements wait for the terminating semicolon.
		if strings.HasPrefix(full, "[<") && balanced(full) && !strings.HasSuffix(full, ";") {
			runQuery(full)
			buf.Reset()
		} else if strings.HasSuffix(full, ";") {
			if err := db.Exec(full); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			buf.Reset()
		}
		prompt()
	}
}

func balanced(s string) bool {
	depth := 0
	for _, c := range s {
		switch c {
		case '[':
			depth++
		case ']':
			depth--
		}
	}
	return depth == 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
