package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/gsalert/gsalert/internal/protocol"
)

// sendTo sends one ping through a fresh transport to a foreign HTTP server
// and returns Send's error and the transport's SendErrors count.
func sendTo(t *testing.T, h http.HandlerFunc) (error, int64) {
	t.Helper()
	peer := httptest.NewServer(h)
	defer peer.Close()
	tr := NewHTTP()
	defer func() { _ = tr.Close() }()
	_, err := tr.Send(context.Background(), strings.TrimPrefix(peer.URL, "http://"),
		protocol.MustEnvelope("cli", protocol.MsgPing, &protocol.Ping{}))
	return err, tr.Metrics().SendErrors.Value()
}

// An over-limit response used to be cut at the limit and then reported as
// malformed XML; it is refused as too large, with or without a declared
// length, and counted.
func TestHTTPSendRefusesOversizeResponse(t *testing.T) {
	body := bytes.Repeat([]byte("x"), maxEnvelopeBytes+1)
	for name, declare := range map[string]bool{"declared length": true, "chunked": false} {
		err, n := sendTo(t, func(w http.ResponseWriter, _ *http.Request) {
			if declare {
				w.Header().Set("Content-Length", fmt.Sprint(len(body)))
			}
			_, _ = w.Write(body)
		})
		if !errors.Is(err, errEnvelopeTooLarge) || errors.Is(err, protocol.ErrMalformedFrame) {
			t.Errorf("%s: err = %v, want %v", name, err, errEnvelopeTooLarge)
		}
		if n != 1 {
			t.Errorf("%s: SendErrors = %d, want 1", name, n)
		}
	}
}

// A 200 whose body is not an envelope never yielded a response envelope: it
// is a send error like any other.
func TestHTTPSendCountsMalformedResponse(t *testing.T) {
	err, n := sendTo(t, func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, "<html>not an envelope</html>") })
	if !errors.Is(err, protocol.ErrMalformedFrame) {
		t.Errorf("err = %v, want %v", err, protocol.ErrMalformedFrame)
	}
	if n != 1 {
		t.Errorf("SendErrors = %d, want 1", n)
	}
}

// A response without a declared length (chunked) is read to its end.
func TestHTTPSendReadsChunkedResponse(t *testing.T) {
	raw, err := protocol.Marshal(protocol.MustEnvelope("srv", protocol.MsgPing, &protocol.Ping{Seq: 7}))
	if err != nil {
		t.Fatal(err)
	}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write(raw[:10])
		w.(http.Flusher).Flush() // forces chunked encoding: no Content-Length
		_, _ = w.Write(raw[10:])
	}))
	defer peer.Close()
	tr := NewHTTP()
	defer func() { _ = tr.Close() }()
	resp, err := tr.Send(context.Background(), strings.TrimPrefix(peer.URL, "http://"),
		protocol.MustEnvelope("cli", protocol.MsgPing, &protocol.Ping{}))
	if err != nil {
		t.Fatal(err)
	}
	var p protocol.Ping
	if err := protocol.Decode(resp, protocol.MsgPing, &p); err != nil || p.Seq != 7 {
		t.Fatalf("Ping = %+v, %v", p, err)
	}
	if n := tr.Metrics().BytesReceived.Value(); n != int64(len(raw)) {
		t.Errorf("BytesReceived = %d, want %d", n, len(raw))
	}
}

// A peer that declares more bytes than it sends fails the send; the short
// body is not handed to the decoder.
func TestHTTPSendShortResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := http.ReadRequest(bufio.NewReader(conn)); err != nil {
			return
		}
		_, _ = io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 500\r\n\r\n<Envelope>")
	}()
	tr := NewHTTP()
	defer func() { _ = tr.Close() }()
	_, err = tr.Send(context.Background(), ln.Addr().String(), protocol.MustEnvelope("cli", protocol.MsgPing, &protocol.Ping{}))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want %v", err, io.ErrUnexpectedEOF)
	}
	if n := tr.Metrics().SendErrors.Value(); n != 1 {
		t.Errorf("SendErrors = %d, want 1", n)
	}
}

// rawRequest writes one hand-made HTTP request to a listener of tr and
// returns the response status.
func rawRequest(t *testing.T, addr, head string, body []byte) int {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST "+EnvelopePath+" HTTP/1.1\r\nHost: x\r\n"+head+"\r\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(body); err != nil {
		t.Fatal(err)
	}
	_ = conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

// The listener side of the same read path: a request with no declared
// length is read to its end, one that declares more than it sends or more
// than the limit is refused, and neither counts as a received frame.
func TestHTTPListenerContentLength(t *testing.T) {
	tr := NewHTTP()
	defer func() { _ = tr.Close() }()
	l, err := tr.Listen("127.0.0.1:0", echoHandler("srv"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := protocol.Marshal(protocol.MustEnvelope("cli", protocol.MsgPing, &protocol.Ping{Seq: 1}))
	if err != nil {
		t.Fatal(err)
	}
	chunked := []byte(fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(raw), raw))
	for _, c := range []struct {
		name, head string
		body       []byte
		status     int
		frames     int64
	}{
		{"exact", fmt.Sprintf("Content-Length: %d\r\n", len(raw)), raw, http.StatusOK, 1},
		{"chunked", "Transfer-Encoding: chunked\r\n", chunked, http.StatusOK, 2},
		{"short body", fmt.Sprintf("Content-Length: %d\r\n", len(raw)+100), raw, http.StatusBadRequest, 2},
		{"over the limit", fmt.Sprintf("Content-Length: %d\r\n", maxEnvelopeBytes+1), nil, http.StatusRequestEntityTooLarge, 2},
		{"empty", "Content-Length: 0\r\n", nil, http.StatusBadRequest, 2},
	} {
		if got := rawRequest(t, BoundAddr(l), c.head, c.body); got != c.status {
			t.Errorf("%s: status %d, want %d", c.name, got, c.status)
		}
		if got := tr.Metrics().FramesReceived.Value(); got != c.frames {
			t.Errorf("%s: FramesReceived = %d, want %d", c.name, got, c.frames)
		}
	}
}
