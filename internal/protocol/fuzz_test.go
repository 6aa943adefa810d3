package protocol

import (
	"bytes"
	"encoding/xml"
	"math"
	"reflect"
	"testing"
)

// FuzzUnmarshal drives the envelope decoder with arbitrary byte streams —
// the exact surface a hostile or corrupted peer reaches first — in
// differential mode: Unmarshal must agree with the reflective encoding/xml
// decoder on every input (same error-ness, same Header, same Body.Inner
// bytes), so the scan decoder can never accept, reject or read a frame
// differently from the decoder it replaced. It must never panic, and
// whatever it accepts must survive the Marshal→Unmarshal round trip with the
// header intact (the dedup and routing fields the rest of the system
// trusts).
func FuzzUnmarshal(f *testing.F) {
	// Real envelopes of several types as seeds, plus malformed shapes.
	for _, env := range []*Envelope{
		MustEnvelope("gds0", MsgPing, nil),
		MustEnvelope("C001", MsgAck, nil),
		MustEnvelope("C002", MsgReplWAL, &ErrorPayload{Code: "x", Message: "not really"}),
	} {
		raw, err := Marshal(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`<Envelope><Header><Type>gds.ping</Type></Header></Envelope>`))
	f.Add([]byte(`<Envelope><Header></Header></Envelope>`)) // missing type
	f.Add([]byte(`not xml at all`))
	f.Add([]byte(``))
	f.Add([]byte(`<Envelope><Body><inner>&#0;</inner></Body>`))
	for _, c := range wireCases() {
		f.Add(readWireGolden(f, c.name))
	}
	for _, c := range fallbackShapes {
		f.Add([]byte(c.doc))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// The decoded envelope owns its input; the oracle gets a copy.
		want, wantErr := unmarshalReflect(bytes.Clone(data))
		env, err := Unmarshal(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Unmarshal err = %v, reflective decoder err = %v\ninput: %q", err, wantErr, data)
		}
		if err != nil {
			return // rejecting is fine; panicking or disagreeing is not
		}
		if env.Header != want.Header {
			t.Fatalf("header differs from the reflective decoder:\n got %+v\nwant %+v\ninput: %q", env.Header, want.Header, data)
		}
		if !bytes.Equal(env.Body.Inner, want.Body.Inner) {
			t.Fatalf("body differs from the reflective decoder:\n got %q\nwant %q\ninput: %q", env.Body.Inner, want.Body.Inner, data)
		}
		if env.Header.Type == "" {
			t.Fatalf("Unmarshal accepted an envelope without a header type: %q", data)
		}
		raw, err := Marshal(env)
		if err != nil {
			t.Fatalf("accepted envelope does not re-marshal: %v\ninput: %q", err, data)
		}
		again, err := Unmarshal(raw)
		if err != nil {
			t.Fatalf("re-marshalled envelope does not re-parse: %v\nround: %q", err, raw)
		}
		if again.Header.ID != env.Header.ID || again.Header.Type != env.Header.Type ||
			again.Header.From != env.Header.From || again.Header.TTL != env.Header.TTL {
			t.Fatalf("header drifted across round trip:\nfirst: %+v\nagain: %+v", env.Header, again.Header)
		}
		if !bytes.Equal(bytes.TrimSpace(again.Body.Inner), bytes.TrimSpace(env.Body.Inner)) {
			t.Fatalf("body drifted across round trip:\nfirst: %q\nagain: %q", env.Body.Inner, again.Body.Inner)
		}
	})
}

// hotPayloads are the payload types with a scan decoder, in the order
// FuzzDecodePayload's selector byte addresses them.
var hotPayloads = []struct {
	typ   MessageType
	fresh func() any
}{
	{MsgBroadcast, func() any { return new(Broadcast) }},
	{MsgMulticast, func() any { return new(Multicast) }},
	{MsgRouteContent, func() any { return new(RouteContent) }},
	{MsgEvent, func() any { return new(EventPayload) }},
	{MsgNotify, func() any { return new(Notify) }},
	{MsgNotifyBatch, func() any { return new(NotifyBatch) }},
	{MsgReplWAL, func() any { return new(ReplWAL) }},
	{MsgReplAck, func() any { return new(ReplAck) }},
}

// FuzzDecodePayload is the same differential check one level down: for each
// payload type with a scan decoder, Decode must agree with xml.Unmarshal on
// every body — same error-ness and, field for field, the same value.
func FuzzDecodePayload(f *testing.F) {
	for i, p := range hotPayloads {
		if _, ok := p.fresh().(scanDecoder); !ok {
			f.Fatalf("%s has no scan decoder", p.typ)
		}
		for _, c := range wireCases() {
			env, err := Unmarshal(readWireGolden(f, c.name))
			if err != nil {
				f.Fatal(err)
			}
			if env.Header.Type == p.typ {
				f.Add(uint8(i), env.Body.Inner)
			}
		}
		f.Add(uint8(i), []byte(`<x/>`))
	}
	f.Add(uint8(5), []byte(`<NotifyBatch><Items><Notify><Client>c</Client><Event> <e a="1"/> </Event></Notify></Items><Items/></NotifyBatch>`))
	f.Add(uint8(2), []byte(`<RouteContent><Flood> true </Flood><Attrs><Attr name="a" other="b">v<!-- c --></Attr></Attrs><Inner>&#60;</Inner></RouteContent>`))
	f.Add(uint8(7), []byte(`<ReplAck><AppliedSeq>+1</AppliedSeq><QoS><Bucket><Tokens>NaN</Tokens></Bucket></QoS></ReplAck>`))

	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		if len(body) == 0 {
			return // ErrNoPayload before any decoder runs
		}
		p := hotPayloads[int(which)%len(hotPayloads)]
		got, want := p.fresh(), p.fresh()
		wantErr := xml.Unmarshal(bytes.Clone(body), want)
		err := Decode(&Envelope{Header: Header{Type: p.typ}, Body: Body{Inner: body}}, p.typ, got)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: Decode err = %v, xml.Unmarshal err = %v\nbody: %q", p.typ, err, wantErr, body)
		}
		scrubNaN(got)
		scrubNaN(want)
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Decode differs from xml.Unmarshal:\n got %+v\nwant %+v\nbody: %q", p.typ, got, want, body)
		}
	})
}

// scrubNaN replaces NaN token levels, which no value equals, by a sentinel
// so that reflect.DeepEqual can compare two decodings of "NaN".
func scrubNaN(v any) {
	if a, ok := v.(*ReplAck); ok {
		for i := range a.QoSBuckets {
			if math.IsNaN(a.QoSBuckets[i].Tokens) {
				a.QoSBuckets[i].Tokens = math.MaxFloat64
			}
		}
	}
}
