package protocol

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// fallbackShapes are well-formed envelopes outside the scan decoder's
// dialect, one per construct docs/WIRE.md lists: each must be handed to
// encoding/xml whole, and so decode to exactly what it always decoded to.
var fallbackShapes = []struct{ name, doc string }{
	{"namespace prefix", `<soap:Envelope xmlns:soap="urn:x"><soap:Header><soap:ID>i</soap:ID><soap:Type>gds.ping</soap:Type></soap:Header><soap:Body><Ping><Seq>1</Seq></Ping></soap:Body></soap:Envelope>`},
	{"default namespace", `<Envelope xmlns="urn:x"><Header><ID>i</ID><Type>gds.ping</Type></Header><Body></Body></Envelope>`},
	{"comment inside Header", `<Envelope><Header><ID>i</ID><!-- routed --><Type>gds.ping</Type><TTL>3</TTL></Header><Body><Ping><Seq>1</Seq></Ping></Body></Envelope>`},
	{"comment inside Body", `<Envelope><Header><ID>i</ID><Type>gds.ping</Type></Header><Body><Ping><!-- c --><Seq>1</Seq></Ping></Body></Envelope>`},
	{"CDATA body", `<Envelope><Header><ID>i</ID><Type>error</Type></Header><Body><Error><Code>c</Code><Message><![CDATA[a < b]]></Message></Error></Body></Envelope>`},
	{"CDATA header field", `<Envelope><Header><ID><![CDATA[i&d]]></ID><Type>gds.ping</Type></Header><Body></Body></Envelope>`},
	{"unknown header element", `<Envelope><Header><ID>i</ID><Type>gds.ping</Type><Priority>9</Priority><TTL>3</TTL></Header><Body></Body></Envelope>`},
	{"unknown envelope element", `<Envelope><Header><ID>i</ID><Type>gds.ping</Type></Header><Signature>s</Signature><Body><Ping></Ping></Body></Envelope>`},
	{"attribute on ID", `<Envelope><Header><ID scheme="uuid">i</ID><Type>gds.ping</Type></Header><Body></Body></Envelope>`},
	{"attribute on Envelope", `<Envelope version="2"><Header><ID>i</ID><Type>gds.ping</Type></Header><Body></Body></Envelope>`},
	{"CRLF chardata", "<Envelope>\r\n<Header><ID>i</ID><Type>gds.ping</Type><From>a\r\nb\rc</From></Header>\r\n<Body><Ping>\r\n</Ping></Body></Envelope>"},
	{"trailing bytes", `<Envelope><Header><ID>i</ID><Type>gds.ping</Type></Header><Body></Body></Envelope>` + "\n<!-- sent by x -->"},
	{"trailing garbage", `<Envelope><Header><ID>i</ID><Type>gds.ping</Type></Header><Body></Body></Envelope><<<`},
	{"depth beyond the stack", `<Envelope><Header><ID>i</ID><Type>gds.ping</Type></Header><Body>` + strings.Repeat("<d>", 40) + strings.Repeat("</d>", 40) + `</Body></Envelope>`},
	{"processing instruction", `<Envelope><?route fast?><Header><ID>i</ID><Type>gds.ping</Type></Header><Body></Body></Envelope>`},
	{"other XML declaration", `<?xml version="1.0" encoding="utf-8" standalone="yes"?><Envelope><Header><ID>i</ID><Type>gds.ping</Type></Header><Body></Body></Envelope>`},
	{"self-closing body", `<Envelope><Header><ID>i</ID><Type>gds.ping</Type></Header><Body/></Envelope>`},
	{"self-closing header field", `<Envelope><Header><ID>i</ID><Type>gds.ping</Type><From/></Header><Body></Body></Envelope>`},
	{"nested element in header field", `<Envelope><Header><ID>i<b>x</b>d</ID><Type>gds.ping</Type></Header><Body></Body></Envelope>`},
	{"text between elements", `<Envelope>x<Header><ID>i</ID><Type>gds.ping</Type></Header>y<Body></Body></Envelope>`},
	{"surrogate reference", `<Envelope><Header><ID>&#xD800;</ID><Type>gds.ping</Type></Header><Body></Body></Envelope>`},
	// And shapes neither decoder accepts: the fallback is also what
	// explains a malformed frame.
	{"bad number", `<Envelope><Header><ID>i</ID><Type>gds.ping</Type><TTL>seven</TTL></Header><Body></Body></Envelope>`},
	{"mismatched tags in body", `<Envelope><Header><ID>i</ID><Type>gds.ping</Type></Header><Body><a></b></Body></Envelope>`},
}

// scannedShapes are non-canonical envelopes still inside the dialect: plain
// element/text XML our writers would not emit but the scan decoder reads —
// to, again, exactly what encoding/xml reads.
var scannedShapes = []struct{ name, doc string }{
	{"indented", "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<Envelope>\n  <Header>\n    <ID>i</ID>\n    <Type>gds.ping</Type>\n  </Header>\n  <Body>\n    <Ping><Seq>1</Seq></Ping>\n  </Body>\n</Envelope>"},
	{"no declaration, fields reordered", `<Envelope><Body><Ping></Ping></Body><Header><Hops>2</Hops><Type>gds.ping</Type><ID>i</ID></Header></Envelope>`},
	{"repeated elements", `<Envelope><Header><ID>i</ID><Type>gds.ping</Type><ID>j</ID></Header><Header><From>f</From></Header><Body>a</Body><Body>b</Body></Envelope>`},
	{"padded and empty numbers", `<Envelope><Header><ID>i</ID><Type>gds.ping</Type><TTL> +7 </TTL><Hops></Hops></Header><Body></Body></Envelope>`},
	{"character references", `<Envelope><Header><ID>&#x4D;&#257;ori &amp; &lt;&apos;&quot;&gt; &#13;</ID><Type>gds.ping</Type></Header><Body>&#xD;<a b='&#10;"'/></Body></Envelope>`},
	{"missing type", `<Envelope><Header><ID>i</ID></Header><Body></Body></Envelope>`},
}

func TestFallbackBoundary(t *testing.T) {
	check := func(name, doc string, scanned bool) {
		t.Run(name, func(t *testing.T) {
			if new(Envelope).scanXML([]byte(doc)) != scanned {
				t.Fatalf("scan decoder accepted = %v, want %v", !scanned, scanned)
			}
			got, err := Unmarshal([]byte(doc))
			want, wantErr := unmarshalReflect([]byte(doc))
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("Unmarshal err = %v, reflective decoder err = %v", err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Unmarshal differs from the reflective decoder:\n got %+v\nwant %+v", got, want)
			}
		})
	}
	for _, c := range fallbackShapes {
		check(c.name, c.doc, false)
	}
	for _, c := range scannedShapes {
		check(c.name, c.doc, true)
	}
}

// The same boundary one level down: a payload body outside the dialect goes
// to xml.Unmarshal through the same Decode entry point.
func TestDecodeFallback(t *testing.T) {
	env := &Envelope{Header: Header{Type: MsgNotifyBatch}, Body: Body{Inner: []byte(
		`<NotifyBatch><!-- two items --><Items><Notify><Client>c1</Client><Event><e/></Event></Notify></Items>` +
			`<Items><Notify future="1"><Client>c2</Client><Priority>1</Priority><Event><e/></Event></Notify></Items></NotifyBatch>`)}}
	if new(NotifyBatch).scanXML(env.Body.Inner) {
		t.Fatal("the scan decoder accepted a body outside its dialect")
	}
	var b NotifyBatch
	if err := Decode(env, MsgNotifyBatch, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Items) != 2 || b.Items[0].Client != "c1" || b.Items[1].Client != "c2" || string(b.Items[1].Event.Inner) != "<e/>" {
		t.Fatalf("decoded %+v", b)
	}
	// A payload type without a scan decoder takes the same entry point.
	var p Ping
	if err := Decode(MustEnvelope("a", MsgPing, &Ping{Seq: 9}), MsgPing, &p); err != nil || p.Seq != 9 {
		t.Fatalf("Ping = %+v, %v", p, err)
	}
}

// A scan decoder that gives up must leave dst untouched, or the reflective
// decoder that runs next would append to half-filled slices.
func TestScanFailureLeavesDstUntouched(t *testing.T) {
	body := []byte(`<NotifyBatch><Items><Notify><Client>c1</Client></Notify><Notify><Client>c2</Client><Unknown/></Notify></Items></NotifyBatch>`)
	var b NotifyBatch
	if b.scanXML(body) {
		t.Fatal("accepted an unknown element")
	}
	if !reflect.DeepEqual(b, NotifyBatch{}) {
		t.Fatalf("dst modified by a failed scan: %+v", b)
	}
	if err := Decode(&Envelope{Header: Header{Type: MsgNotifyBatch}, Body: Body{Inner: body}}, MsgNotifyBatch, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Items) != 2 {
		t.Fatalf("items = %d, want 2", len(b.Items))
	}
}

// Unmarshal hands the input buffer to the envelope; a relay then decodes the
// wrapped envelope out of it without copying the payload again.
func TestUnmarshalAliasesInput(t *testing.T) {
	raw := readWireGolden(t, "gds.broadcast")
	env, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Body.Inner) == 0 || &env.Body.Inner[0] != &raw[bytes.Index(raw, []byte("<Broadcast>"))] {
		t.Fatal("Body.Inner is not a sub-slice of the input")
	}
	if cap(env.Body.Inner) != len(env.Body.Inner) {
		t.Fatal("Body.Inner can be appended to over the rest of the input")
	}
	var bc Broadcast
	if err := Decode(env, MsgBroadcast, &bc); err != nil {
		t.Fatal(err)
	}
	inner, err := Unmarshal(bc.Inner)
	if err != nil {
		t.Fatal(err)
	}
	var ep EventPayload
	if err := Decode(inner, MsgEvent, &ep); err != nil {
		t.Fatal(err)
	}
	if &ep.Event.Inner[0] != &bc.Inner[bytes.Index(bc.Inner, []byte("<AlertEvent>"))] {
		t.Fatal("the event XML was copied on the way through the wrapped envelope")
	}
	// Clone still detaches.
	cp := env.Clone()
	cp.Body.Inner[0] = 'X'
	if env.Body.Inner[0] != '<' {
		t.Fatal("Clone shares the input buffer")
	}
}

// Allocation pins: the ceilings are the counts measured when the scan codec
// landed (go1.24, amd64), so reflection creeping back in — or a per-field
// allocation in the scanner — fails here before it shows in gsbench. The
// reflective codec needed 135 / 15 / 1 080 allocations for the same three
// rows.
func TestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	raw := readWireGolden(t, "gds.broadcast")
	env, err := Unmarshal(bytes.Clone(raw))
	if err != nil {
		t.Fatal(err)
	}
	pin := func(name string, ceiling float64, fn func()) {
		t.Helper()
		if got := testing.AllocsPerRun(200, fn); got > ceiling {
			t.Errorf("%s: %.0f allocs/op, ceiling %.0f", name, got, ceiling)
		}
	}
	// The envelope, and one string per header field present (ID, Type,
	// From, Trace).
	pin("Unmarshal", 5, func() {
		if _, err := Unmarshal(raw); err != nil {
			t.Fatal(err)
		}
	})
	// The output buffer.
	pin("Marshal", 1, func() {
		if _, err := Marshal(env); err != nil {
			t.Fatal(err)
		}
	})
	// What a GDS relay does per hop before it forwards: the Broadcast
	// (it escapes through Decode's `any`) and its unescaped wrapped
	// envelope, then the inner envelope and its four header strings.
	pin("Decode(Broadcast)+Unmarshal(inner)", 7, func() {
		var bc Broadcast
		if err := Decode(env, MsgBroadcast, &bc); err != nil {
			t.Fatal(err)
		}
		if _, err := Unmarshal(bc.Inner); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkCodec is the codec cost per message type, one sub-benchmark per
// direction and golden envelope: Marshal and Unmarshal of the envelope, and
// Decode of its typed payload.
func BenchmarkCodec(b *testing.B) {
	for _, c := range wireCases() {
		c := c
		raw := readWireGolden(b, c.name)
		env, err := Unmarshal(bytes.Clone(raw))
		if err != nil {
			b.Fatal(err)
		}
		b.Run("marshal/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				if _, err := Marshal(env); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("unmarshal/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				if _, err := Unmarshal(raw); err != nil {
					b.Fatal(err)
				}
			}
		})
		if c.fresh == nil {
			continue
		}
		b.Run("decode/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(env.Body.Inner)))
			for i := 0; i < b.N; i++ {
				if err := Decode(env, env.Header.Type, c.fresh()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
