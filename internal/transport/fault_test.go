package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/protocol"
)

// echoHandler records received envelopes and acks them.
func echoListener(t *testing.T, tr Transport, addr string) *[]*protocol.Envelope {
	t.Helper()
	var got []*protocol.Envelope
	_, err := tr.Listen(addr, HandlerFunc(func(_ context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
		got = append(got, env)
		return protocol.MustEnvelope("peer", protocol.MsgAck, nil), nil
	}))
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return &got
}

func TestFaultInjectorPassthrough(t *testing.T) {
	inj := NewFaultInjector(NewMemory(), 1)
	got := echoListener(t, inj, "gs://b")
	env := protocol.MustEnvelope("a", protocol.MsgPing, nil)
	if _, err := inj.Send(context.Background(), "gs://b", env); err != nil {
		t.Fatalf("passthrough send: %v", err)
	}
	if len(*got) != 1 {
		t.Fatalf("delivered %d, want 1", len(*got))
	}
	if st := inj.Stats(); st.Dropped != 0 || st.Delayed != 0 {
		t.Fatalf("stats %+v, want zeros", st)
	}
}

func TestFaultInjectorDropScopedByLinkAndType(t *testing.T) {
	inj := NewFaultInjector(NewMemory(), 1)
	gotB := echoListener(t, inj, "gs://b")
	gotC := echoListener(t, inj, "gs://c")
	// Sever only a->b replication traffic, deterministically.
	inj.SetRules(FaultRule{From: "a", To: "gs://b", TypePrefix: "repl.", DropRate: 1})
	ctx := context.Background()

	_, err := inj.Send(ctx, "gs://b", protocol.MustEnvelope("a", protocol.MsgReplWAL, nil))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("matched send err = %v, want ErrInjected", err)
	}
	// Different type on the same link passes.
	if _, err := inj.Send(ctx, "gs://b", protocol.MustEnvelope("a", protocol.MsgPing, nil)); err != nil {
		t.Fatalf("other-type send: %v", err)
	}
	// Same type to another destination passes.
	if _, err := inj.Send(ctx, "gs://c", protocol.MustEnvelope("a", protocol.MsgReplWAL, nil)); err != nil {
		t.Fatalf("other-dest send: %v", err)
	}
	if len(*gotB) != 1 || len(*gotC) != 1 {
		t.Fatalf("delivered b=%d c=%d, want 1/1", len(*gotB), len(*gotC))
	}
	if st := inj.Stats(); st.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", st.Dropped)
	}
	// Healing restores the link.
	inj.ClearRules()
	if _, err := inj.Send(ctx, "gs://b", protocol.MustEnvelope("a", protocol.MsgReplWAL, nil)); err != nil {
		t.Fatalf("healed send: %v", err)
	}
}

func TestFaultInjectorLatencyAccountsVirtually(t *testing.T) {
	inj := NewFaultInjector(NewMemory(), 1)
	got := echoListener(t, inj, "gs://b")
	inj.SetRules(
		FaultRule{To: "gs://b", ExtraLatency: 3 * time.Millisecond},
		FaultRule{From: "a", ExtraLatency: 2 * time.Millisecond},
	)
	env := protocol.MustEnvelope("a", protocol.MsgPing, nil)
	if _, err := inj.Send(context.Background(), "gs://b", env); err != nil {
		t.Fatalf("send: %v", err)
	}
	// The caller's envelope is untouched; the delivered clone carries the
	// injected latency from both matching rules on top of the memory
	// transport's own per-hop accounting.
	if env.Header.VirtualLatencyMicros != 0 {
		t.Fatalf("caller envelope mutated: %d", env.Header.VirtualLatencyMicros)
	}
	if len(*got) != 1 {
		t.Fatalf("delivered %d, want 1", len(*got))
	}
	if lat := (*got)[0].Header.VirtualLatencyMicros; lat < 5000 {
		t.Fatalf("delivered virtual latency %dµs, want >= 5000", lat)
	}
	if st := inj.Stats(); st.Delayed != 1 {
		t.Fatalf("delayed = %d, want 1", st.Delayed)
	}
}

func TestFaultInjectorDeterministicWithSeed(t *testing.T) {
	run := func() (dropped int64) {
		inj := NewFaultInjector(NewMemory(), 42)
		echoListener(t, inj, "gs://b")
		inj.SetRules(FaultRule{DropRate: 0.5})
		for i := 0; i < 200; i++ {
			_, _ = inj.Send(context.Background(), "gs://b", protocol.MustEnvelope("a", protocol.MsgPing, nil))
		}
		return inj.Stats().Dropped
	}
	a, b := run(), run()
	if a != b || a == 0 || a == 200 {
		t.Fatalf("dropped %d vs %d — want identical, partial drops", a, b)
	}
}

func TestFaultInjectorRemoveRules(t *testing.T) {
	inj := NewFaultInjector(NewMemory(), 1)
	inj.SetRules(
		FaultRule{To: "gs://b", DropRate: 1},
		FaultRule{To: "gs://c", DropRate: 1},
	)
	if n := inj.RemoveRules(func(r FaultRule) bool { return r.To == "gs://b" }); n != 1 {
		t.Fatalf("removed %d, want 1", n)
	}
	if rules := inj.rules; len(rules) != 1 || rules[0].To != "gs://c" {
		t.Fatalf("rules after removal: %+v", rules)
	}
}
