package client

import (
	"bufio"
	"net"
	"strings"
	"testing"

	"pascalr/internal/protocol"
)

// TestDialRefusesProtocolVersion1 answers the handshake with a version
// 1 Hello, whose row batches are row-major: Dial must refuse it with an
// error naming both versions.
func TestDialRefusesProtocolVersion1(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		w := protocol.NewWriter()
		w.Uvarint(1) // version
		w.Uvarint(7) // session id
		protocol.WriteFrame(bufio.NewWriter(c), protocol.OpHello, w.Bytes())
		c.Read(make([]byte, 1)) // hold the connection until the client closes it
	}()
	conn, err := Dial(ln.Addr().String())
	if err == nil {
		conn.Close()
		t.Fatal("Dial accepted a version 1 server")
	}
	for _, want := range []string{"version 1", "version 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s", err, want)
		}
	}
}
