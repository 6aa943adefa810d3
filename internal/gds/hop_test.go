package gds

import (
	"context"
	"io"
	"reflect"
	"testing"

	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/transport"
)

// sentRecord is what TestHopFanOutOrder pins about one send.
type sentRecord struct {
	Addr string
	Type protocol.MessageType
	From string
	Hops int
}

// recordingTransport captures every send in order and answers nothing; the
// node under test is driven through the handler it bound.
type recordingTransport struct {
	handler transport.Handler
	sent    []sentRecord
}

func (r *recordingTransport) Listen(_ string, h transport.Handler) (io.Closer, error) {
	r.handler = h
	return io.NopCloser(nil), nil
}

func (r *recordingTransport) Send(_ context.Context, addr string, env *protocol.Envelope) (*protocol.Envelope, error) {
	r.sent = append(r.sent, sentRecord{addr, env.Header.Type, env.Header.From, env.Header.Hops})
	return nil, nil
}

func (r *recordingTransport) Close() error { return nil }

// TestHopFanOutOrder pins, where it is decided, the exact order in which one
// dissemination hop sends: per mode, which links are selected, deliveries
// before relays, and how the relays are ordered (multicast: parent, then
// children sorted; broadcast and content: parent and children sorted
// together). The E19 byte-identical bundles depend on it.
func TestHopFanOutOrder(t *testing.T) {
	ctx := context.Background()
	tr := &recordingTransport{}
	n, err := NewNode("hub", "addr:hub", 2, tr)
	if err != nil {
		t.Fatal(err)
	}
	deliver := func(from string, typ protocol.MessageType, payload any) {
		t.Helper()
		env := protocol.MustEnvelope(from, typ, payload)
		resp, err := tr.handler.Handle(ctx, env)
		if err != nil {
			t.Fatal(err)
		}
		if err := protocol.AsError(resp); err != nil {
			t.Fatalf("%s from %s: %v", typ, from, err)
		}
	}
	// The parent's address sorts between the two children's, so "parent
	// first" and "sorted together" give different orders.
	if err := n.AttachToParent(ctx, "up", "addr:m-parent"); err != nil {
		t.Fatal(err)
	}
	deliver("cz", protocol.MsgRegisterChild, &protocol.RegisterChild{NodeID: "cz", Addr: "addr:z-child", Stratum: 3})
	deliver("ca", protocol.MsgRegisterChild, &protocol.RegisterChild{NodeID: "ca", Addr: "addr:a-child", Stratum: 3})
	for _, s := range []string{"s3", "s1", "s2"} {
		deliver(s, protocol.MsgRegisterServer, &protocol.RegisterServer{Name: s, Addr: "addr:" + s})
	}
	// Group g: s3 and s1 directly, one member below each child.
	for _, s := range []string{"s3", "s1"} {
		deliver(s, protocol.MsgJoinGroup, &protocol.JoinGroup{Group: "g", Name: s, Addr: "addr:" + s})
	}
	deliver("cz", protocol.MsgJoinGroup, &protocol.JoinGroup{Group: "g", Name: "far-z", Addr: "addr:far-z"})
	deliver("ca", protocol.MsgJoinGroup, &protocol.JoinGroup{Group: "g", Name: "far-a", Addr: "addr:far-a"})
	// Digests: s1 and ca match the event below, s2 and cz do not, s3 is
	// unwarm (match-all).
	match := digest(t, `collection = "Hamilton.D"`).Strings()
	other := digest(t, `collection = "Other.X"`).Strings()
	deliver("s1", protocol.MsgAdvertiseProfiles, &protocol.AdvertiseProfiles{Name: "s1", Digest: match})
	deliver("s2", protocol.MsgAdvertiseProfiles, &protocol.AdvertiseProfiles{Name: "s2", Digest: other})
	deliver("ca", protocol.MsgAdvertiseProfiles, &protocol.AdvertiseProfiles{Name: "ca", Digest: match})
	deliver("cz", protocol.MsgAdvertiseProfiles, &protocol.AdvertiseProfiles{Name: "cz", Digest: other})

	inner := protocol.MustEnvelope("origin", protocol.MsgEvent,
		&protocol.EventPayload{Event: protocol.Wrap([]byte("<AlertEvent/>"))})
	raw, err := protocol.Marshal(inner)
	if err != nil {
		t.Fatal(err)
	}
	attrs := []protocol.EventAttr{{Name: "collection", Value: "hamilton.d"}}

	const hops = 2
	cases := []struct {
		name    string
		typ     protocol.MessageType
		from    string
		payload any
		// deliver and relay are the addresses sent to, in order: first the
		// inner envelope to each server, then the wrapper over each link.
		deliver, relay []string
	}{
		{
			name: "broadcast", typ: protocol.MsgBroadcast, from: "s2", // no echo to s2
			payload: &protocol.Broadcast{Inner: raw},
			deliver: []string{"addr:s1", "addr:s3"},
			relay:   []string{"addr:a-child", "addr:m-parent", "addr:z-child"},
		},
		{
			name: "multicast", typ: protocol.MsgMulticast, from: "origin",
			payload: &protocol.Multicast{Group: "g", Inner: raw},
			deliver: []string{"addr:s1", "addr:s3"},
			relay:   []string{"addr:m-parent", "addr:a-child", "addr:z-child"},
		},
		{
			name: "multicast from a child", typ: protocol.MsgMulticast, from: "cz",
			payload: &protocol.Multicast{Group: "g", Inner: raw},
			deliver: []string{"addr:s1", "addr:s3"},
			relay:   []string{"addr:m-parent", "addr:a-child"},
		},
		{
			name: "content routed", typ: protocol.MsgRouteContent, from: "origin",
			payload: &protocol.RouteContent{Attrs: attrs, Inner: raw},
			deliver: []string{"addr:s1", "addr:s3"},
			relay:   []string{"addr:a-child", "addr:m-parent"},
		},
		{
			name: "content flood from the parent", typ: protocol.MsgRouteContent, from: "up",
			payload: &protocol.RouteContent{Flood: true, Attrs: attrs, Inner: raw},
			deliver: []string{"addr:s1", "addr:s2", "addr:s3"},
			relay:   []string{"addr:a-child", "addr:z-child"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []sentRecord
			for _, addr := range tc.deliver {
				want = append(want, sentRecord{addr, protocol.MsgEvent, "hub", hops})
			}
			for _, addr := range tc.relay {
				want = append(want, sentRecord{addr, tc.typ, "hub", hops + 1})
			}
			env := protocol.MustEnvelope(tc.from, tc.typ, tc.payload)
			env.Header.Hops = hops
			before := n.Metrics().Deliveries.Value()
			// The second arrival of the same Header.ID must send nothing.
			for arrival, expect := range [][]sentRecord{want, nil} {
				tr.sent = nil
				resp, err := tr.handler.Handle(ctx, env)
				if err != nil {
					t.Fatal(err)
				}
				if resp == nil || resp.Header.Type != protocol.MsgAck {
					t.Fatalf("arrival %d: response = %+v, want an ack", arrival, resp)
				}
				if !reflect.DeepEqual(tr.sent, expect) {
					t.Errorf("arrival %d sent\n  %v\nwant\n  %v", arrival, tr.sent, expect)
				}
			}
			if got := n.Metrics().Deliveries.Value() - before; got != int64(len(tc.deliver)) {
				t.Errorf("Deliveries advanced by %d, want %d", got, len(tc.deliver))
			}
		})
	}
}
