package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/protocol"
)

func echoHandler(name string) Handler {
	return HandlerFunc(func(_ context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
		var p protocol.Ping
		if err := protocol.Decode(env, protocol.MsgPing, &p); err != nil {
			return protocol.Errorf(name, "decode", "%v", err), nil
		}
		return protocol.MustEnvelope(name, protocol.MsgPing, &protocol.Ping{Seq: p.Seq + 1}), nil
	})
}

func TestMemorySendReceive(t *testing.T) {
	m := NewMemory()
	defer func() { _ = m.Close() }()
	if _, err := m.Listen("b", echoHandler("b")); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	env := protocol.MustEnvelope("a", protocol.MsgPing, &protocol.Ping{Seq: 1})
	resp, err := m.Send(context.Background(), "b", env)
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	var p protocol.Ping
	if err := protocol.Decode(resp, protocol.MsgPing, &p); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if p.Seq != 2 {
		t.Errorf("Seq = %d, want 2", p.Seq)
	}
}

func TestMemoryUnreachable(t *testing.T) {
	m := NewMemory()
	env := protocol.MustEnvelope("a", protocol.MsgPing, &protocol.Ping{})
	if _, err := m.Send(context.Background(), "nobody", env); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestMemoryPartitionAndHeal(t *testing.T) {
	m := NewMemory()
	_, _ = m.Listen("b", echoHandler("b"))
	m.Partition("a", "b")
	env := protocol.MustEnvelope("a", protocol.MsgPing, &protocol.Ping{})
	if _, err := m.Send(context.Background(), "b", env); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("err = %v, want ErrPartitioned", err)
	}
	// Partition is symmetric by key regardless of argument order.
	m.Heal("b", "a")
	if _, err := m.Send(context.Background(), "b", env); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestMemoryNodeDown(t *testing.T) {
	m := NewMemory()
	_, _ = m.Listen("b", echoHandler("b"))
	m.SetNodeDown("b", true)
	env := protocol.MustEnvelope("a", protocol.MsgPing, &protocol.Ping{})
	if _, err := m.Send(context.Background(), "b", env); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	m.SetNodeDown("b", false)
	if _, err := m.Send(context.Background(), "b", env); err != nil {
		t.Fatalf("after revive: %v", err)
	}
	// Sender down blocks too.
	m.SetNodeDown("a", true)
	if _, err := m.Send(context.Background(), "b", env); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("sender down err = %v, want ErrUnreachable", err)
	}
}

func TestMemoryVirtualLatencyAccumulates(t *testing.T) {
	m := NewMemory()

	var relayed *protocol.Envelope
	// c records what it receives.
	_, _ = m.Listen("c", HandlerFunc(func(_ context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
		relayed = env
		return nil, nil
	}))
	// b relays a->b messages to c.
	_, _ = m.Listen("b", HandlerFunc(func(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
		fwd := env.NextHop()
		fwd.Header.From = "b"
		return m.Send(ctx, "c", fwd)
	}))

	env := protocol.MustEnvelope("a", protocol.MsgPing, &protocol.Ping{})
	if _, err := m.Send(context.Background(), "b", env); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if relayed == nil {
		t.Fatal("c never received the relay")
	}
	want := 2 * hopLatency.Microseconds() // a->b, b->c
	if relayed.Header.VirtualLatencyMicros != want {
		t.Errorf("virtual latency = %dus, want %dus", relayed.Header.VirtualLatencyMicros, want)
	}
	if relayed.Header.Hops != 1 {
		t.Errorf("hops = %d, want 1", relayed.Header.Hops)
	}
}

func TestMemoryStats(t *testing.T) {
	m := NewMemory()
	_, _ = m.Listen("b", echoHandler("b"))
	for i := 0; i < 5; i++ {
		env := protocol.MustEnvelope("a", protocol.MsgPing, &protocol.Ping{Seq: i})
		if _, err := m.Send(context.Background(), "b", env); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Sent != 5 {
		t.Errorf("Sent = %d, want 5", st.Sent)
	}
	if st.PerType[protocol.MsgPing] != 5 {
		t.Errorf("PerType[ping] = %d, want 5", st.PerType[protocol.MsgPing])
	}
	m.ResetStats()
	if st := m.Stats(); st.Sent != 0 {
		t.Errorf("after reset Sent = %d", st.Sent)
	}
}

func TestMemoryDoubleBind(t *testing.T) {
	m := NewMemory()
	l, err := m.Listen("x", echoHandler("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Listen("x", echoHandler("x")); !errors.Is(err, ErrAlreadyBound) {
		t.Fatalf("err = %v, want ErrAlreadyBound", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := m.Listen("x", echoHandler("x")); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestMemoryClosed(t *testing.T) {
	m := NewMemory()
	_, _ = m.Listen("b", echoHandler("b"))
	_ = m.Close()
	env := protocol.MustEnvelope("a", protocol.MsgPing, &protocol.Ping{})
	if _, err := m.Send(context.Background(), "b", env); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := m.Listen("c", echoHandler("c")); !errors.Is(err, ErrClosed) {
		t.Fatalf("listen err = %v, want ErrClosed", err)
	}
}

func TestMemoryConcurrentSends(t *testing.T) {
	m := NewMemory()
	_, _ = m.Listen("b", echoHandler("b"))
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			env := protocol.MustEnvelope(fmt.Sprintf("a%d", i), protocol.MsgPing, &protocol.Ping{Seq: i})
			if _, err := m.Send(context.Background(), "b", env); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent send: %v", err)
	}
	if st := m.Stats(); st.Sent != 64 {
		t.Errorf("Sent = %d, want 64", st.Sent)
	}
}

func TestMemoryContextCancelled(t *testing.T) {
	m := NewMemory()
	_, _ = m.Listen("b", echoHandler("b"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env := protocol.MustEnvelope("a", protocol.MsgPing, &protocol.Ping{})
	if _, err := m.Send(ctx, "b", env); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSendExpectTranslatesRemoteError(t *testing.T) {
	m := NewMemory()
	_, _ = m.Listen("b", HandlerFunc(func(context.Context, *protocol.Envelope) (*protocol.Envelope, error) {
		return protocol.Errorf("b", "nope", "always fails"), nil
	}))
	env := protocol.MustEnvelope("a", protocol.MsgPing, &protocol.Ping{})
	var p protocol.Ping
	err := SendExpect(context.Background(), m, "b", env, protocol.MsgPing, &p)
	if !errors.Is(err, ErrRemoteFailure) {
		t.Fatalf("err = %v, want ErrRemoteFailure", err)
	}
	var re *protocol.RemoteError
	if !errors.As(err, &re) || re.Code != "nope" {
		t.Fatalf("remote error not preserved: %v", err)
	}
}

func TestHTTPRoundTrip(t *testing.T) {
	tr := NewHTTP()
	defer func() { _ = tr.Close() }()
	l, err := tr.Listen("127.0.0.1:0", echoHandler("srv"))
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	addr := BoundAddr(l)
	if addr == "" {
		t.Fatal("BoundAddr empty")
	}
	env := protocol.MustEnvelope("cli", protocol.MsgPing, &protocol.Ping{Seq: 41})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := tr.Send(ctx, addr, env)
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	var p protocol.Ping
	if err := protocol.Decode(resp, protocol.MsgPing, &p); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if p.Seq != 42 {
		t.Errorf("Seq = %d, want 42", p.Seq)
	}
}

func TestHTTPOneWayNoContent(t *testing.T) {
	tr := NewHTTP()
	defer func() { _ = tr.Close() }()
	received := make(chan string, 1)
	l, err := tr.Listen("127.0.0.1:0", HandlerFunc(func(_ context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
		received <- env.Header.From
		return nil, nil
	}))
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	env := protocol.MustEnvelope("cli", protocol.MsgPing, &protocol.Ping{})
	resp, err := tr.Send(context.Background(), BoundAddr(l), env)
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if resp != nil {
		t.Errorf("resp = %+v, want nil for 204", resp)
	}
	select {
	case from := <-received:
		if from != "cli" {
			t.Errorf("from = %q", from)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler never ran")
	}
}

func TestHTTPUnreachable(t *testing.T) {
	tr := NewHTTP()
	defer func() { _ = tr.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	env := protocol.MustEnvelope("cli", protocol.MsgPing, &protocol.Ping{})
	// Port 1 on localhost is essentially never listening.
	if _, err := tr.Send(ctx, "127.0.0.1:1", env); err == nil {
		t.Fatal("Send to closed port succeeded")
	}
}

func TestHTTPHandlerErrorBecomesErrorEnvelope(t *testing.T) {
	tr := NewHTTP()
	defer func() { _ = tr.Close() }()
	l, _ := tr.Listen("127.0.0.1:0", HandlerFunc(func(context.Context, *protocol.Envelope) (*protocol.Envelope, error) {
		return nil, errors.New("boom")
	}))
	env := protocol.MustEnvelope("cli", protocol.MsgPing, &protocol.Ping{})
	resp, err := tr.Send(context.Background(), BoundAddr(l), env)
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if remoteErr := protocol.AsError(resp); remoteErr == nil {
		t.Fatalf("want error envelope, got %+v", resp)
	}
}

func TestHTTPListenerClose(t *testing.T) {
	tr := NewHTTP()
	defer func() { _ = tr.Close() }()
	l, err := tr.Listen("127.0.0.1:0", echoHandler("srv"))
	if err != nil {
		t.Fatal(err)
	}
	addr := BoundAddr(l)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	env := protocol.MustEnvelope("cli", protocol.MsgPing, &protocol.Ping{})
	if _, err := tr.Send(ctx, addr, env); err == nil {
		t.Fatal("Send after listener close succeeded")
	}
}
