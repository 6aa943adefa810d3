package transport

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/event"
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

	// One envelope of every message type the scan codec handles crosses a
	// real client/server pair and comes back: marshalled, sent, read into
	// its own buffer, decoded field by field, re-encoded, and decoded
	// again. Nothing else in the suite takes the codec over a socket —
	// the simulations run on Memory, which never marshals.
	hot := hotEnvelopes(t)
	srv := NewHTTP()
	defer func() { _ = srv.Close() }()
	mirror, err := srv.Listen("127.0.0.1:0", HandlerFunc(func(_ context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
		for _, c := range hot {
			if c.env.Header.Type == env.Header.Type {
				payload := c.fresh()
				if err := protocol.Decode(env, env.Header.Type, payload); err != nil {
					return nil, err
				}
				back, err := protocol.NewEnvelope("srv", env.Header.Type, payload)
				if err != nil {
					return nil, err
				}
				back.Header.Trace = env.Header.Trace
				return back, nil
			}
		}
		return nil, fmt.Errorf("unexpected %s", env.Header.Type)
	}))
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	for _, c := range hot {
		resp, err := tr.Send(ctx, BoundAddr(mirror), c.env)
		if err != nil {
			t.Fatalf("%s: Send: %v", c.env.Header.Type, err)
		}
		if resp.Header.Type != c.env.Header.Type || resp.Header.Trace != c.env.Header.Trace {
			t.Fatalf("%s: response header %+v", c.env.Header.Type, resp.Header)
		}
		sent, got := c.fresh(), c.fresh()
		if err := protocol.Decode(c.env, c.env.Header.Type, sent); err != nil {
			t.Fatalf("%s: Decode sent: %v", c.env.Header.Type, err)
		}
		if err := protocol.Decode(resp, c.env.Header.Type, got); err != nil {
			t.Fatalf("%s: Decode response: %v", c.env.Header.Type, err)
		}
		if !reflect.DeepEqual(got, sent) {
			t.Errorf("%s changed on the way:\n got %+v\nsent %+v", c.env.Header.Type, got, sent)
		}
	}
	if n := srv.Metrics().FramesReceived.Value(); n != int64(len(hot)) {
		t.Errorf("mirror received %d frames, want %d", n, len(hot))
	}
}

type hotEnvelope struct {
	env   *protocol.Envelope
	fresh func() any
}

// hotEnvelopes builds one envelope per message type with a scan decoder
// (plus the composite notification and the error payload, which do not have
// one), carrying an event whose values need every escape.
func hotEnvelopes(t *testing.T) []hotEnvelope {
	t.Helper()
	ev := event.New("London-17", event.TypeDocumentsAdded, event.QName{Host: "London", Collection: "E"}, 42,
		[]event.DocRef{
			{ID: "d1", Metadata: map[string][]string{"dc.Title": {"Māori & <Pacific> \"studies\"\t\n"}, "dc.Creator": {"O'Brien", "李 小龍"}}},
			{ID: "d2", Snippet: "…"},
		}, time.Date(2005, 6, 1, 12, 0, 0, 123456789, time.UTC))
	evXML, err := ev.MarshalXMLBytes()
	if err != nil {
		t.Fatal(err)
	}
	inner := protocol.MustEnvelope("London", protocol.MsgEvent, &protocol.EventPayload{Event: protocol.Wrap(evXML)})
	inner.Header.Trace = "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	innerRaw, err := protocol.Marshal(inner)
	if err != nil {
		t.Fatal(err)
	}
	notify := protocol.Notify{Client: "alice", ProfileID: "p1", Composite: "count", Class: "realtime",
		Event: protocol.Wrap(evXML), Contributing: []protocol.RawXML{protocol.Wrap(evXML)}}
	mk := func(typ protocol.MessageType, payload any, fresh func() any) hotEnvelope {
		env := protocol.MustEnvelope("cli", typ, payload)
		env.Header.Trace = inner.Header.Trace
		return hotEnvelope{env, fresh}
	}
	return []hotEnvelope{
		mk(protocol.MsgBroadcast, &protocol.Broadcast{Inner: innerRaw}, func() any { return new(protocol.Broadcast) }),
		mk(protocol.MsgMulticast, &protocol.Multicast{Group: "g", Inner: innerRaw}, func() any { return new(protocol.Multicast) }),
		mk(protocol.MsgRouteContent, &protocol.RouteContent{Flood: true, Inner: innerRaw,
			Attrs: []protocol.EventAttr{{Name: "collection", Value: "London.E"}, {Name: "a\"b", Value: "<&>"}}},
			func() any { return new(protocol.RouteContent) }),
		mk(protocol.MsgEvent, &protocol.EventPayload{TransformTo: "Hamilton.D", Event: protocol.Wrap(evXML)}, func() any { return new(protocol.EventPayload) }),
		mk(protocol.MsgNotify, &notify, func() any { return new(protocol.Notify) }),
		mk(protocol.MsgNotifyBatch, &protocol.NotifyBatch{Items: []protocol.Notify{notify, {Client: "bob", ProfileID: "p2", Event: protocol.Wrap(evXML)}}},
			func() any { return new(protocol.NotifyBatch) }),
		mk(protocol.MsgNotifyComposite, &protocol.CompositeNotify{Client: "bob", ProfileID: "p9", Kind: "digest", DocIDs: []string{"d1"},
			Event: protocol.Wrap(evXML), Contributing: []protocol.RawXML{protocol.Wrap(evXML)}}, func() any { return new(protocol.CompositeNotify) }),
		mk(protocol.MsgReplWAL, &protocol.ReplWAL{Seq: 7, Items: []protocol.ReplWALItem{
			{Kind: "append", Client: "alice", MailboxSeq: 3, Notification: protocol.Wrap([]byte("<Notification><Client>alice</Client></Notification>"))},
			{Kind: "dedup", DedupID: "London-17"}}}, func() any { return new(protocol.ReplWAL) }),
		mk(protocol.MsgReplAck, &protocol.ReplAck{AppliedSeq: 7, QoSBuckets: []protocol.ReplQoSBucket{
			{Dimension: "subscriber", Key: "alice", Tokens: 12.5, LastUnixNano: 1117627200000000123}}}, func() any { return new(protocol.ReplAck) }),
		mk(protocol.MsgError, &protocol.ErrorPayload{Code: "c", Message: "m <&>"}, func() any { return new(protocol.ErrorPayload) }),
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
