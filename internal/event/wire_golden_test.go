package event

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the testdata/wire goldens")

// wireEvents are the captured event fragments that fence the event codec:
// MarshalXMLBytes must keep emitting these bytes and UnmarshalXMLBytes must
// decode them to exactly what the reflective encoding/xml decoder returns.
func wireEvents() map[string]*Event {
	docs := make([]DocRef, 8)
	for i := range docs {
		docs[i] = DocRef{
			ID: fmt.Sprintf("HASH%04x", i*7919),
			Metadata: map[string][]string{
				"dc.Title":   {fmt.Sprintf("Tītle №%d — Māori & <Pacific> \"studies\"", i)},
				"dc.Creator": {"O'Brien, Zoë", "李 小龍"},
				"dc.Subject": {"tab\there", "line\nbreak", "cr\rreturn", ""},
				"dc.Date":    {fmt.Sprintf("2005-06-%02d", i+1)},
			},
		}
	}
	docs[0].Snippet = "…snippet with <b>markup</b> & entities…"
	docs[7].Metadata = nil
	full, err := New("London-17", TypeDocumentsAdded, QName{Host: "London", Collection: "E"}, 42, docs,
		time.Date(2005, 6, 1, 12, 0, 0, 123456789, time.UTC)).Transformed(QName{Host: "Hamilton", Collection: "D.sub"})
	if err != nil {
		panic(err)
	}
	zoned := New("London-19", TypeHealthAlert, QName{Host: "London", Collection: "health"}, -1,
		[]DocRef{{ID: "only"}}, time.Date(2005, 6, 2, 9, 30, 0, 0, time.FixedZone("NZST", 12*3600)))
	return map[string]*Event{
		"event":        full,
		"event-nodocs": New("London-18", TypeCollectionRebuilt, QName{Host: "London", Collection: "E"}, 43, nil, time.Date(2005, 6, 2, 0, 0, 0, 0, time.UTC)),
		"event-zoned":  zoned,
	}
}

func wireGoldenPath(name string) string { return filepath.Join("testdata", "wire", name+".xml") }

func TestWireGolden(t *testing.T) {
	for name, ev := range wireEvents() {
		name, ev := name, ev
		t.Run(name, func(t *testing.T) {
			raw, err := ev.MarshalXMLBytes()
			if err != nil {
				t.Fatal(err)
			}
			if *update {
				if err := os.MkdirAll(filepath.Dir(wireGoldenPath(name)), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(wireGoldenPath(name), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(wireGoldenPath(name))
			if err != nil {
				t.Fatalf("%v (run go test ./internal/event -run TestWireGolden -update)", err)
			}
			if !bytes.Equal(raw, golden) {
				t.Fatalf("MarshalXMLBytes no longer emits the golden bytes:\n got %s\nwant %s", raw, golden)
			}
			got, err := UnmarshalXMLBytes(golden)
			if err != nil {
				t.Fatal(err)
			}
			want, err := unmarshalReflect(golden)
			if err != nil {
				t.Fatal(err)
			}
			if scanEvent(golden) == nil {
				t.Fatal("the scan decoder rejected a canonical event")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("UnmarshalXMLBytes differs from the reflective decoder:\n got %+v\nwant %+v", got, want)
			}
			again, err := got.MarshalXMLBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, golden) {
				t.Fatalf("Marshal(Unmarshal(golden)) != golden:\n got %s\nwant %s", again, golden)
			}
		})
	}
}
