package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/gsalert/gsalert/internal/metrics"
	"github.com/gsalert/gsalert/internal/protocol"
)

// EnvelopePath is the URL path at which HTTP transports exchange envelopes.
const EnvelopePath = "/gsalert/envelope"

// maxEnvelopeBytes bounds a single envelope on the wire (16 MiB) to protect
// servers from unbounded reads.
const maxEnvelopeBytes = 16 << 20

var errEnvelopeTooLarge = errors.New("envelope too large")

// readEnvelope reads one envelope body of the declared length (-1 when the
// peer declared none) into a buffer of its own. The buffer is allocated per
// message and never pooled or reused: the envelope decoded from it aliases
// it (protocol.Unmarshal) and owns it from then on.
func readEnvelope(r io.Reader, length int64) ([]byte, error) {
	if length > maxEnvelopeBytes {
		return nil, errEnvelopeTooLarge
	}
	if length >= 0 {
		body := make([]byte, length)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	body, err := io.ReadAll(io.LimitReader(r, maxEnvelopeBytes+1))
	if err != nil {
		return nil, err
	}
	if len(body) > maxEnvelopeBytes {
		return nil, errEnvelopeTooLarge
	}
	return body, nil
}

// HTTP carries envelopes as XML over HTTP POST, the stand-in for the
// paper's SOAP messaging. Addresses are "host:port" strings.
type HTTP struct {
	client *http.Client

	mu      sync.Mutex
	servers map[string]*http.Server
	wg      sync.WaitGroup
	closed  bool

	m HTTPMetrics
}

// HTTPMetrics are the transport's wire-level counters: envelopes (frames)
// and payload bytes in each direction, plus send failures. Lock-free; an
// observability scrape reads them live (internal/obs).
type HTTPMetrics struct {
	// FramesSent counts envelopes POSTed to peers.
	FramesSent metrics.Counter
	// FramesReceived counts envelopes accepted by local listeners.
	FramesReceived metrics.Counter
	// BytesSent counts marshalled envelope bytes sent (request bodies plus
	// response bodies written by local listeners).
	BytesSent metrics.Counter
	// BytesReceived counts envelope bytes read (request bodies accepted by
	// local listeners plus response bodies of our own sends).
	BytesReceived metrics.Counter
	// SendErrors counts Send calls that failed before yielding a response
	// envelope (unreachable peer, HTTP-level failure, over-limit or
	// malformed response).
	SendErrors metrics.Counter
}

// Metrics exposes the transport's live wire counters.
func (t *HTTP) Metrics() *HTTPMetrics { return &t.m }

var _ Transport = (*HTTP)(nil)

// NewHTTP builds an HTTP transport with sane client timeouts.
func NewHTTP() *HTTP {
	return &HTTP{
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 8,
				IdleConnTimeout:     60 * time.Second,
			},
		},
		servers: make(map[string]*http.Server),
	}
}

// Listen binds h to a local TCP address ("127.0.0.1:0" picks a free port).
func (t *HTTP) Listen(addr string, h Handler) (io.Closer, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler for %q", addr)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	t.mu.Unlock()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc(EnvelopePath, func(w http.ResponseWriter, r *http.Request) {
		t.serveEnvelope(w, r, h)
	})
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	bound := ln.Addr().String()

	t.mu.Lock()
	t.servers[bound] = srv
	t.mu.Unlock()

	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		// ErrServerClosed is the normal shutdown signal.
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			_ = err // best-effort service; callers observe failures via Send
		}
	}()
	return &httpListener{t: t, addr: bound, srv: srv}, nil
}

type httpListener struct {
	t    *HTTP
	addr string
	srv  *http.Server
}

// Close stops the listener.
func (l *httpListener) Close() error {
	l.t.mu.Lock()
	delete(l.t.servers, l.addr)
	l.t.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return l.srv.Shutdown(ctx)
}

func (t *HTTP) serveEnvelope(w http.ResponseWriter, r *http.Request, h Handler) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	body, err := readEnvelope(r.Body, r.ContentLength)
	if errors.Is(err, errEnvelopeTooLarge) {
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	if err != nil {
		http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
		return
	}
	env, err := protocol.Unmarshal(body)
	if err != nil {
		http.Error(w, "malformed envelope: "+err.Error(), http.StatusBadRequest)
		return
	}
	t.m.FramesReceived.Inc()
	t.m.BytesReceived.Add(int64(len(body)))
	resp, err := h.Handle(r.Context(), env)
	if err != nil {
		resp = protocol.Errorf("", "handler", "%v", err)
	}
	if resp == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	raw, err := protocol.Marshal(resp)
	if err != nil {
		http.Error(w, "marshal response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	if _, err := w.Write(raw); err != nil {
		return // client went away; nothing to do
	}
	t.m.BytesSent.Add(int64(len(raw)))
}

// Send POSTs the envelope to addr and parses the response envelope, if any.
func (t *HTTP) Send(ctx context.Context, addr string, env *protocol.Envelope) (*protocol.Envelope, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	t.mu.Unlock()

	raw, err := protocol.Marshal(env)
	if err != nil {
		return nil, err
	}
	url := "http://" + addr + EnvelopePath
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("transport: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/xml; charset=utf-8")
	t.m.FramesSent.Inc()
	t.m.BytesSent.Add(int64(len(raw)))
	httpResp, err := t.client.Do(req)
	if err != nil {
		t.m.SendErrors.Inc()
		return nil, fmt.Errorf("%w: %q: %w", ErrUnreachable, addr, err)
	}
	defer func() { _ = httpResp.Body.Close() }()

	if httpResp.StatusCode == http.StatusNoContent {
		return nil, nil
	}
	body, err := readEnvelope(httpResp.Body, httpResp.ContentLength)
	if err != nil {
		t.m.SendErrors.Inc()
		return nil, fmt.Errorf("transport: read response from %q: %w", addr, err)
	}
	t.m.BytesReceived.Add(int64(len(body)))
	if httpResp.StatusCode != http.StatusOK {
		t.m.SendErrors.Inc()
		return nil, fmt.Errorf("%w: %q: http %d: %s", ErrRemoteFailure, addr, httpResp.StatusCode, truncate(body, 200))
	}
	resp, err := protocol.Unmarshal(body)
	if err != nil {
		t.m.SendErrors.Inc()
		return nil, fmt.Errorf("transport: response from %q: %w", addr, err)
	}
	return resp, nil
}

// Close shuts down every listener and the client pool.
func (t *HTTP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	servers := make([]*http.Server, 0, len(t.servers))
	for _, s := range t.servers {
		servers = append(servers, s)
	}
	t.servers = make(map[string]*http.Server)
	t.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var firstErr error
	for _, s := range servers {
		if err := s.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	t.wg.Wait()
	t.client.CloseIdleConnections()
	return firstErr
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
