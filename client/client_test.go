package client

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"

	"pascalr/internal/protocol"
)

// TestDialRefusesProtocolVersion1 answers the handshake with an older
// Hello — version 1, whose row batches are row-major, and version 2,
// whose QueryOpts block still carries a worker count: Dial must refuse
// each with an error naming both versions.
func TestDialRefusesProtocolVersion1(t *testing.T) {
	for _, old := range []uint64{1, 2} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			w := protocol.NewWriter()
			w.Uvarint(old) // version
			w.Uvarint(7)   // session id
			protocol.WriteFrame(bufio.NewWriter(c), protocol.OpHello, w.Bytes())
			c.Read(make([]byte, 1)) // hold the connection until the client closes it
		}()
		conn, err := Dial(ln.Addr().String())
		ln.Close()
		if err == nil {
			conn.Close()
			t.Fatalf("Dial accepted a version %d server", old)
		}
		for _, want := range []string{fmt.Sprintf("version %d", old), fmt.Sprintf("version %d", protocol.Version)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %s", err, want)
			}
		}
	}
}
