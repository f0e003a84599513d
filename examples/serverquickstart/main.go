// Serverquickstart: dial a running pascald, run a one-shot query, then
// stream the same query through a prepared statement, and finish with a
// look at the server's process list.
//
// Start the daemon first:
//
//	go run ./cmd/pascald -university 40
//
// then run with: go run ./examples/serverquickstart [-addr host:port]
package main

import (
	"flag"
	"fmt"
	"log"

	"pascalr/client"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7583", "pascald address")
	flag.Parse()

	c, err := client.Dial(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	fmt.Printf("connected, session %d\n", c.SessionID())

	// One-shot: professors teaching a low-level course, forced onto the
	// paper's S1+S2 strategies.
	const q = `[<e.ename, c.cnr> OF EACH e IN employees, EACH c IN courses, EACH t IN timetable:
	  (e.estatus = professor) AND (c.clevel <= sophomore) AND
	  (e.enr = t.tenr) AND (c.cnr = t.tcnr)]`
	res, err := c.Query(q, client.Options{HasStrategies: true, Strategies: 0x03})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one-shot: %d rows, columns %v\n", len(res.Rows), res.Columns)

	// Prepared + streamed: compile once, fetch in small batches.
	stmt, err := c.Prepare(q, client.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer stmt.Close()
	rows, err := stmt.Execute()
	if err != nil {
		log.Fatal(err)
	}
	rows.FetchSize = 4
	n := 0
	for rows.Next() {
		var name string
		var cnr int64
		if err := rows.Scan(&name, &cnr); err != nil {
			log.Fatal(err)
		}
		if n < 3 {
			fmt.Printf("  %s teaches course %d\n", name, cnr)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed: %d rows (first 3 shown)\n", n)

	procs, err := c.ProcessList()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("process list: %d session(s)\n", len(procs.Rows))
}
