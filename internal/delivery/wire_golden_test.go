package delivery

import (
	"bytes"
	"encoding/xml"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the testdata/wire goldens")

// wireNotifications are the captured mailbox-WAL notification records (the
// form repl.wal also carries) that fence the notification codec.
func wireNotifications() map[string]Notification {
	ev := event.New("London-17", event.TypeDocumentsAdded, event.QName{Host: "London", Collection: "E"}, 42,
		[]event.DocRef{
			{ID: "d1", Metadata: map[string][]string{"dc.Title": {"Māori & <Pacific> \"studies\""}, "dc.Creator": {"O'Brien", "李 小龍"}}, Snippet: "tab\there"},
			{ID: "d&2"},
		}, time.Date(2005, 6, 1, 12, 0, 0, 123456789, time.UTC))
	summary := event.New("London-c1", event.TypeCompositeAlert, event.QName{Host: "London", Collection: "E"}, 0, nil,
		time.Date(2005, 6, 1, 12, 0, 1, 0, time.UTC))
	tctx, ok := trace.Parse("00-0123456789abcdef0123456789abcdef-0123456789abcdef-01")
	if !ok {
		panic("bad trace literal")
	}
	return map[string]Notification{
		"notification": {Client: "alice", ProfileID: "London-p1", Event: ev, DocIDs: []string{"d1", "d&2"},
			At: time.Unix(0, 1117627200000000007), Trace: tctx},
		"notification-composite": {Client: "bob <b@example.org>", ProfileID: "London-p2", Event: summary, Composite: "count",
			Contributing: []*event.Event{ev, summary}, Class: qos.ClassRealtime, At: time.Unix(0, 1117627201000000000)},
		"notification-bare": {Client: "carol", ProfileID: "p", Class: qos.ClassBulk, At: time.Unix(1, 0)},
	}
}

func wireGoldenPath(name string) string { return filepath.Join("testdata", "wire", name+".xml") }

// referenceUnmarshalNotification is unmarshalNotification as the reflective
// decoder performs it: the oracle any other decoder is compared against.
func referenceUnmarshalNotification(raw []byte) (Notification, error) {
	var w walNotification
	if err := xml.Unmarshal(raw, &w); err != nil {
		return Notification{}, err
	}
	return w.notification()
}

func TestWireGolden(t *testing.T) {
	for name, n := range wireNotifications() {
		name, n := name, n
		t.Run(name, func(t *testing.T) {
			raw, err := marshalNotification(n)
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
				t.Fatalf("%v (run go test ./internal/delivery -run TestWireGolden -update)", err)
			}
			if !bytes.Equal(raw, golden) {
				t.Fatalf("marshalNotification no longer emits the golden bytes:\n got %s\nwant %s", raw, golden)
			}
			got, err := unmarshalNotification(golden)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceUnmarshalNotification(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !new(walNotification).scanXML(golden) {
				t.Fatal("the scan decoder rejected a canonical notification")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("unmarshalNotification differs from the reflective decoder:\n got %+v\nwant %+v", got, want)
			}
			again, err := marshalNotification(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, golden) {
				t.Fatalf("marshal(unmarshal(golden)) != golden:\n got %s\nwant %s", again, golden)
			}
		})
	}
}

// A record outside the scan decoder's dialect — written by another version,
// or by hand — goes to encoding/xml whole and decodes as it always did.
func TestNotificationFallback(t *testing.T) {
	for _, doc := range []string{
		`<Notification><!-- spooled --><Client>c</Client><ProfileID>p</ProfileID><At>5</At><Event></Event></Notification>`,
		`<Notification><Client>c</Client><ProfileID>p</ProfileID><Priority>1</Priority><Docs><ID>d</ID></Docs></Notification>`,
		`<Notification xmlns="urn:x"><Client>c</Client><ProfileID>p</ProfileID></Notification>`,
		"<Notification>\r\n<Client>c</Client><ProfileID>p</ProfileID></Notification>",
	} {
		raw := []byte(doc)
		if new(walNotification).scanXML(raw) {
			t.Errorf("the scan decoder accepted %s", doc)
		}
		got, err := unmarshalNotification(raw)
		want, wantErr := referenceUnmarshalNotification(raw)
		if err != nil || wantErr != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v, %v\nwant %+v, %v", doc, got, err, want, wantErr)
		}
	}
}
