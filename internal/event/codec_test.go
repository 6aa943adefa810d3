package event

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// FuzzEventXML is the differential fence around the event decoder:
// UnmarshalXMLBytes must agree with the reflective encoding/xml decoder on
// every input — same error-ness and, field for field, the same event — and
// whatever it accepts must re-marshal to something that decodes to the same
// event again.
func FuzzEventXML(f *testing.F) {
	for name := range wireEvents() {
		raw, err := os.ReadFile(wireGoldenPath(name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, doc := range nonCanonicalEvents {
		f.Add([]byte(doc))
	}
	f.Add([]byte(``))
	f.Add([]byte(`<AlertEvent><Type>nonsense</Type></AlertEvent>`))
	f.Add([]byte(`<AlertEvent><Type>collection-built</Type><OccurredAt>yesterday</OccurredAt></AlertEvent>`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		want, wantErr := unmarshalReflect(bytes.Clone(raw))
		got, err := UnmarshalXMLBytes(raw)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("UnmarshalXMLBytes err = %v, reflective decoder err = %v\ninput: %q", err, wantErr, raw)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("differs from the reflective decoder:\n got %+v\nwant %+v\ninput: %q", got, want, raw)
		}
		again, err := got.MarshalXMLBytes()
		if err != nil {
			return // e.g. a year MarshalText refuses
		}
		back, err := UnmarshalXMLBytes(again)
		if err != nil {
			t.Fatalf("re-marshalled event does not re-parse: %v\nround: %q", err, again)
		}
		if back.ID != got.ID || back.Type != got.Type || back.Collection != got.Collection ||
			len(back.Docs) != len(got.Docs) || !back.OccurredAt.Equal(got.OccurredAt) {
			t.Fatalf("event drifted across round trip:\nfirst: %+v\nagain: %+v", got, back)
		}
	})
}

// nonCanonicalEvents are well-formed fragments outside the scan decoder's
// dialect: each goes to encoding/xml whole and decodes as it always did.
var nonCanonicalEvents = []string{
	`<AlertEvent xmlns="urn:x"><ID>e</ID><Type>collection-built</Type></AlertEvent>`,
	`<AlertEvent><ID>e</ID><!-- c --><Type>collection-built</Type></AlertEvent>`,
	`<AlertEvent><ID>e</ID><Type>collection-built</Type><Docs><Doc><ID>d</ID><Meta name="a" lang="mi"><Value>v</Value></Meta></Doc></Docs></AlertEvent>`,
	`<AlertEvent><ID>e</ID><Type>collection-built</Type><Docs><Doc><ID>d</ID><Meta><Value>anonymous</Value></Meta></Doc></Docs></AlertEvent>`,
	`<AlertEvent><ID>e</ID><Type>collection-built</Type><Docs><Doc><ID>d</ID><Rank>1</Rank></Doc></Docs></AlertEvent>`,
	`<AlertEvent><ID>e</ID><Type>collection-built</Type><Snippet><![CDATA[x]]></Snippet></AlertEvent>`,
	"<AlertEvent>\r\n<ID>e</ID><Type>collection-built</Type></AlertEvent>",
	`<AlertEvent><ID>e</ID><Type>collection-built</Type></AlertEvent>` + "\n",
}

func TestNonCanonicalEventsFallBack(t *testing.T) {
	for _, doc := range nonCanonicalEvents {
		raw := []byte(doc)
		if scanEvent(raw) != nil {
			t.Errorf("the scan decoder accepted %s", doc)
		}
		got, err := UnmarshalXMLBytes(raw)
		want, wantErr := unmarshalReflect(raw)
		if err != nil || wantErr != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v, %v\nwant %+v, %v", doc, got, err, want, wantErr)
		}
	}
}

// The ceiling is the count measured when the scan decoder landed (go1.24,
// amd64) for the 8-document × 4-field golden: the event, its doc slice and
// chain, and per document one map, its ID and per field a name, a (grown)
// value slice and the values. The reflective decoder needed 1 290.
func TestUnmarshalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	raw, err := os.ReadFile(wireGoldenPath("event"))
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 163
	if got := testing.AllocsPerRun(200, func() {
		if _, err := UnmarshalXMLBytes(raw); err != nil {
			t.Fatal(err)
		}
	}); got > ceiling {
		t.Errorf("UnmarshalXMLBytes: %.0f allocs/op, ceiling %d", got, ceiling)
	}
}

func BenchmarkEventXML(b *testing.B) {
	raw, err := os.ReadFile(wireGoldenPath("event"))
	if err != nil {
		b.Fatal(err)
	}
	ev, err := UnmarshalXMLBytes(raw)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ev.MarshalXMLBytes(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := UnmarshalXMLBytes(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}
