package protocol

import (
	"bytes"
	"encoding/xml"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/event"
)

var update = flag.Bool("update", false, "rewrite the testdata/wire goldens")

// The wire goldens are one captured canonical envelope per hot message type:
// the byte fence around the codec. Whatever produces or consumes envelopes
// must keep Marshal(Unmarshal(golden)) == golden and decode every golden to
// exactly what the reflective encoding/xml decoder returns.

// wireEvent is the event the goldens carry: 8 documents × 4 metadata fields,
// with non-ASCII values and every character the XML escaper rewrites.
func wireEvent(id string) *event.Event {
	docs := make([]event.DocRef, 8)
	for i := range docs {
		docs[i] = event.DocRef{
			ID: fmt.Sprintf("HASH%04x", i*7919),
			Metadata: map[string][]string{
				"dc.Title":   {fmt.Sprintf("Tītle №%d — Māori & <Pacific> \"studies\"", i)},
				"dc.Creator": {"O'Brien, Zoë", "李 小龍"},
				"dc.Subject": {"tab\there", "line\nbreak", "cr\rreturn"},
				"dc.Date":    {fmt.Sprintf("2005-06-%02d", i+1)},
			},
		}
	}
	docs[0].Snippet = "…snippet with <b>markup</b> & entities…"
	ev := event.New(id, event.TypeDocumentsAdded, event.QName{Host: "London", Collection: "E"}, 42, docs,
		time.Date(2005, 6, 1, 12, 0, 0, 123456789, time.UTC))
	ev, err := ev.Transformed(event.QName{Host: "Hamilton", Collection: "D.sub"})
	if err != nil {
		panic(err)
	}
	return ev
}

func mustEventXML(ev *event.Event) []byte {
	raw, err := ev.MarshalXMLBytes()
	if err != nil {
		panic(err)
	}
	return raw
}

// wireNotification is a delivery-WAL-form notification fragment as repl.wal
// carries it (opaque to this package).
const wireNotification = `<Notification><Client>alice</Client><ProfileID>p-7</ProfileID><Docs><ID>d1</ID></Docs><At>1117627200000000000</At><Event><AlertEvent><ID>e&amp;1</ID></AlertEvent></Event></Notification>`

type wireCase struct {
	name string
	env  *Envelope
	// fresh returns a zero payload value of the case's type (nil for
	// body-less envelopes); inner reports the wrapped envelope bytes of a
	// decoded relay payload.
	fresh func() any
	inner func(any) []byte
}

// fixed makes an envelope reproducible: NewEnvelope stamps a fresh ID and
// the wall clock.
func fixed(env *Envelope, n int) *Envelope {
	env.Header.ID = fmt.Sprintf("%s-lx3k9a-%d", env.Header.From, n)
	env.Header.SentAtUnixNano = 1117627200000000000 + int64(n)
	return env
}

func wireCases() []wireCase {
	ev := wireEvent("London-17")
	evXML := mustEventXML(ev)
	small := mustEventXML(event.New("London-18", event.TypeCollectionRebuilt,
		event.QName{Host: "London", Collection: "E"}, 43, nil, time.Date(2005, 6, 2, 0, 0, 0, 0, time.UTC)))

	inner := fixed(MustEnvelope("London", MsgEvent, &EventPayload{Event: Wrap(evXML)}), 1)
	inner.Header.Trace = "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	innerRaw, err := Marshal(inner)
	if err != nil {
		panic(err)
	}
	forwarded := fixed(MustEnvelope("London", MsgEvent, &EventPayload{TransformTo: "Hamilton.D", Event: Wrap(small)}), 2)

	broadcast := fixed(MustEnvelope("London", MsgBroadcast, &Broadcast{Inner: innerRaw}), 3)
	broadcast.Header.Trace = inner.Header.Trace
	broadcast.Header.TTL = 62
	broadcast.Header.Hops = 2
	broadcast.Header.From = "gds-2"
	multicast := fixed(MustEnvelope("London", MsgMulticast, &Multicast{Group: "coll:Hamilton.D", Inner: innerRaw}), 4)
	route := fixed(MustEnvelope("London", MsgRouteContent, &RouteContent{
		Flood: true,
		Attrs: []EventAttr{
			{Name: "collection", Value: "London.E"},
			{Name: "event.type", Value: "documents-added"},
			{Name: "odd \"name\"", Value: "a < b & c"},
		},
		Inner: innerRaw,
	}), 5)
	routeNoAttrs := fixed(MustEnvelope("London", MsgRouteContent, &RouteContent{Inner: innerRaw}), 6)

	primitive := Notify{Client: "alice", ProfileID: "London-p1", Event: Wrap(evXML)}
	composite := Notify{Client: "alice", ProfileID: "London-p2", Composite: "count", Class: "realtime",
		Event: Wrap(small), Contributing: []RawXML{Wrap(evXML), Wrap(small)}}
	notify := fixed(MustEnvelope("London", MsgNotify, &primitive), 7)
	notify.Header.To = "alice"
	batch := fixed(MustEnvelope("London", MsgNotifyBatch, &NotifyBatch{Items: []Notify{primitive, composite, {Client: "alice", ProfileID: "p3", Class: "bulk", Event: Wrap(small)}}}), 8)
	emptyBatch := fixed(MustEnvelope("London", MsgNotifyBatch, &NotifyBatch{}), 9)
	compNotify := fixed(MustEnvelope("London", MsgNotifyComposite, &CompositeNotify{
		Client: "bob", ProfileID: "London-p9", Kind: "digest", DocIDs: []string{"d1", "d&2"}, Class: "bulk",
		Event: Wrap(small), Contributing: []RawXML{Wrap(evXML), Wrap(small)},
	}), 10)

	wal := fixed(MustEnvelope("London", MsgReplWAL, &ReplWAL{Seq: 18446744073709551615, Items: []ReplWALItem{
		{Kind: "append", Client: "alice", MailboxSeq: 7, Notification: Wrap([]byte(wireNotification))},
		{Kind: "ack", Client: "alice", MailboxSeq: 6},
		{Kind: "dedup", DedupID: "London-17@Hamilton.D.sub"},
	}}), 11)
	replAck := fixed(MustEnvelope("London-standby", MsgReplAck, &ReplAck{AppliedSeq: 991, QoSBuckets: []ReplQoSBucket{
		{Dimension: "subscriber", Key: "alice", Tokens: 12.5, LastUnixNano: 1117627200000000123},
		{Dimension: "collection", Key: "London.E", Tokens: 1e-7},
		{Dimension: "subscriber", Key: "b&b", Tokens: 300},
	}}), 12)
	replJoin := fixed(MustEnvelope("London-standby", MsgReplAck, &ReplAck{Resync: true, Addr: "127.0.0.1:9907", ServerName: "London"}), 13)

	req := fixed(MustEnvelope("alice's <client>", MsgSubscribe, &Subscribe{Client: "alice"}), 14)
	req.Header.TraceID = "trace-9 & co"
	ack := fixed(Ack("London", req), 15)
	ack.Header.VirtualLatencyMicros = 1500
	errEnv := fixed(Errorf("London", "not-found", "collection %q unknown: <%s>", "X&Y", "tag"), 16)

	return []wireCase{
		{"gds.broadcast", broadcast, func() any { return new(Broadcast) }, func(v any) []byte { return v.(*Broadcast).Inner }},
		{"gds.multicast", multicast, func() any { return new(Multicast) }, func(v any) []byte { return v.(*Multicast).Inner }},
		{"gds.route-content", route, func() any { return new(RouteContent) }, func(v any) []byte { return v.(*RouteContent).Inner }},
		{"gds.route-content-noattrs", routeNoAttrs, func() any { return new(RouteContent) }, nil},
		{"gs.event", inner, func() any { return new(EventPayload) }, nil},
		{"gs.event-forwarded", forwarded, func() any { return new(EventPayload) }, nil},
		{"gs.notify", notify, func() any { return new(Notify) }, nil},
		{"gs.notify-batch", batch, func() any { return new(NotifyBatch) }, nil},
		{"gs.notify-batch-empty", emptyBatch, func() any { return new(NotifyBatch) }, nil},
		{"gs.notify-composite", compNotify, func() any { return new(CompositeNotify) }, nil},
		{"repl.wal", wal, func() any { return new(ReplWAL) }, nil},
		{"repl.ack", replAck, func() any { return new(ReplAck) }, nil},
		{"repl.ack-join", replJoin, func() any { return new(ReplAck) }, nil},
		{"ack", ack, nil, nil},
		{"error", errEnv, func() any { return new(ErrorPayload) }, nil},
	}
}

func wireGoldenPath(name string) string { return filepath.Join("testdata", "wire", name+".xml") }

// readWireGolden returns the captured envelope bytes of one case.
func readWireGolden(tb testing.TB, name string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(wireGoldenPath(name))
	if err != nil {
		tb.Fatalf("%v (run go test ./internal/protocol -run TestWireGolden -update)", err)
	}
	return raw
}

// checkAgainstReference asserts that raw decodes, through the package's
// entry points, to exactly what the reflective decoder returns — envelope and
// typed payload — and that the scan decoders took it: a canonical document
// that silently fell back to encoding/xml would pass every other check.
func checkAgainstReference(t *testing.T, raw []byte, fresh func() any) (payload any) {
	t.Helper()
	got, err := Unmarshal(raw)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	want, err := unmarshalReflect(raw)
	if err != nil {
		t.Fatalf("reference Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Unmarshal differs from the reflective decoder:\n got %+v\nwant %+v", got, want)
	}
	if !new(Envelope).scanXML(raw) {
		t.Fatal("the scan decoder rejected a canonical envelope")
	}
	again, err := Marshal(got)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if !bytes.Equal(again, raw) {
		t.Fatalf("Marshal(Unmarshal(golden)) != golden:\n got %s\nwant %s", again, raw)
	}
	if fresh == nil {
		if len(got.Body.Inner) != 0 {
			t.Fatalf("body-less envelope has a body: %s", got.Body.Inner)
		}
		return nil
	}
	payload, wantPayload := fresh(), fresh()
	if err := Decode(got, got.Header.Type, payload); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if err := xml.Unmarshal(want.Body.Inner, wantPayload); err != nil {
		t.Fatalf("reference Decode: %v", err)
	}
	if !reflect.DeepEqual(payload, wantPayload) {
		t.Fatalf("Decode differs from the reflective decoder:\n got %+v\nwant %+v", payload, wantPayload)
	}
	if p, ok := fresh().(scanDecoder); ok && !p.scanXML(got.Body.Inner) {
		t.Fatalf("the %T scan decoder rejected a canonical payload", p)
	}
	return payload
}

func TestWireGolden(t *testing.T) {
	for _, c := range wireCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			raw, err := Marshal(c.env)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			if *update {
				if err := os.MkdirAll(filepath.Dir(wireGoldenPath(c.name)), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(wireGoldenPath(c.name), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden := readWireGolden(t, c.name)
			if !bytes.Equal(raw, golden) {
				t.Fatalf("Marshal no longer emits the golden bytes:\n got %s\nwant %s", raw, golden)
			}
			payload := checkAgainstReference(t, golden, c.fresh)
			if c.inner != nil {
				// The wrapped envelope of a relay payload is a golden too.
				checkAgainstReference(t, c.inner(payload), func() any { return new(EventPayload) })
			}
		})
	}
}
