// Command experiments regenerates the paper's evaluation artifacts —
// every figure and worked example of Jarke & Schmidt (SIGMOD 1982) —
// as measured tables, each under the paper's claim it checks. The
// experiment index is `-run` (E1–E15, see internal/experiments); no
// output is committed yet (ROADMAP.md, "One ruler…", part (c)).
//
// Usage:
//
//	go run ./cmd/experiments            # run everything at default scales
//	go run ./cmd/experiments -run E7    # one experiment
//	go run ./cmd/experiments -scales 20,50,100
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pascalr/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "experiment id (E1..E12) or 'all'")
	scalesArg := flag.String("scales", "20,50,100", "comma-separated database scales")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}
	var scales []int
	for _, s := range strings.Split(*scalesArg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "bad scale %q\n", s)
			os.Exit(2)
		}
		scales = append(scales, n)
	}
	if err := experiments.Run(*run, os.Stdout, scales); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
