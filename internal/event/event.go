// Package event defines the alerting events generated by collection builds
// and the mechanisms that keep them safe in a cyclic, fragmented network:
// globally unique identifiers, bounded deduplication, and origin-transform
// chains that record each super-collection renaming (paper §4.2) so an event
// can never loop through a cycle of super/sub-collection references.
package event

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/gsalert/gsalert/internal/xmlwire"
)

// Type classifies an event.
type Type int

// Event types generated by the collection build process.
const (
	// TypeCollectionBuilt marks the first build of a collection.
	TypeCollectionBuilt Type = iota + 1
	// TypeCollectionRebuilt marks a rebuild of an existing collection.
	TypeCollectionRebuilt
	// TypeCollectionRemoved marks removal of a collection.
	TypeCollectionRemoved
	// TypeDocumentsAdded reports documents new in the latest build.
	TypeDocumentsAdded
	// TypeDocumentsChanged reports documents modified in the latest build.
	TypeDocumentsChanged
	// TypeDocumentsRemoved reports documents dropped in the latest build.
	TypeDocumentsRemoved
	// TypeCompositeAlert is a synthesized event emitted by the composite
	// engine (internal/composite) when a sequence completes, an
	// accumulation threshold is reached, or a digest period flushes. It is
	// never produced by a collection build and never disseminated — it
	// exists only on the notification path, carrying its contributing
	// primitive events alongside.
	TypeCompositeAlert
	// TypeHealthAlert is a meta-alert synthesized by the health plane
	// (internal/health): one component state transition of the server's own
	// SLO rule engine, published into the ordinary pipeline so operators
	// subscribe to the system's self-judgment with the same profile
	// language, QoS classes and durable mailboxes as any alert. The
	// transition details ride as document metadata (health.component,
	// health.state, health.from, health.severity, health.rule,
	// health.value).
	TypeHealthAlert
)

var typeNames = map[Type]string{
	TypeCollectionBuilt:   "collection-built",
	TypeCollectionRebuilt: "collection-rebuilt",
	TypeCollectionRemoved: "collection-removed",
	TypeDocumentsAdded:    "documents-added",
	TypeDocumentsChanged:  "documents-changed",
	TypeDocumentsRemoved:  "documents-removed",
	TypeCompositeAlert:    "composite-alert",
	TypeHealthAlert:       "health-alert",
}

// String returns the canonical name used in profiles ("event.type" values).
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("event-type-%d", int(t))
}

var typeByName = func() map[string]Type {
	m := make(map[string]Type, len(typeNames))
	for t, name := range typeNames {
		m[name] = t
	}
	return m
}()

// ParseType maps a canonical name back to a Type.
func ParseType(s string) (Type, error) {
	if t, ok := typeByName[s]; ok {
		return t, nil
	}
	return 0, fmt.Errorf("event: unknown type %q", s)
}

// QName is a qualified collection name: host + collection
// ("Hamilton" + "D" rendered as "Hamilton.D").
type QName struct {
	Host       string `xml:"Host"`
	Collection string `xml:"Collection"`
}

// String renders the paper's Host.Collection notation.
func (q QName) String() string { return q.Host + "." + q.Collection }

// IsZero reports whether the name is empty.
func (q QName) IsZero() bool { return q.Host == "" && q.Collection == "" }

// ParseQName splits "Host.Collection"; the collection part may itself
// contain dots (sub-collection paths), the host may not.
func ParseQName(s string) (QName, error) {
	i := strings.IndexByte(s, '.')
	if i <= 0 || i == len(s)-1 {
		return QName{}, fmt.Errorf("event: malformed qualified name %q", s)
	}
	return QName{Host: s[:i], Collection: s[i+1:]}, nil
}

// DocRef summarises one document affected by an event. Metadata travels with
// the event so receiving servers can filter without a callback to the origin
// (content-based filtering, paper §5).
type DocRef struct {
	ID       string              `xml:"ID"`
	Metadata map[string][]string `xml:"-"`
	Snippet  string              `xml:"Snippet,omitempty"`
}

// Event is an alerting event. Events are immutable once published; the
// Transform operation returns a renamed copy rather than mutating.
type Event struct {
	// ID is globally unique (origin server name + sequence).
	ID string
	// Type classifies the change.
	Type Type
	// Collection is the qualified name of the collection the event is
	// *about* — after a transform this is the super-collection.
	Collection QName
	// Origin is the collection where the triggering build actually ran.
	Origin QName
	// Chain lists every collection identity this event has carried, in
	// order, starting with the original. The cycle guard refuses to apply a
	// transform to a name already present.
	Chain []QName
	// Docs are the affected documents with their metadata.
	Docs []DocRef
	// BuildVersion is the collection build number that produced the event.
	BuildVersion int
	// OccurredAt is the build completion time at the origin.
	OccurredAt time.Time
}

// Attrs returns the event-level attributes visible to profile predicates.
func (e *Event) Attrs() map[string]string {
	return map[string]string{
		"event.type": e.Type.String(),
		"collection": e.Collection.String(),
		"host":       e.Collection.Host,
		"origin":     e.Origin.String(),
	}
}

// Transformed returns a copy renamed to super (paper §4.2: "the originating
// collection is transformed from London.E to Hamilton.D"). It reports an
// error if super already appears in the chain, which would mean a cycle of
// super/sub-collection references.
func (e *Event) Transformed(super QName) (*Event, error) {
	for _, q := range e.Chain {
		if q == super {
			return nil, &CycleError{Event: e.ID, Repeat: super, Chain: append([]QName(nil), e.Chain...)}
		}
	}
	cp := *e
	cp.Collection = super
	cp.Chain = make([]QName, 0, len(e.Chain)+1)
	cp.Chain = append(cp.Chain, e.Chain...)
	cp.Chain = append(cp.Chain, super)
	// A transformed event is a distinct message for deduplication purposes:
	// subscribers of the super-collection must still be notified even if
	// they saw the sub-collection event.
	cp.ID = e.ID + "@" + super.String()
	return &cp, nil
}

// CycleError reports a refused transform that would loop an event through a
// cyclic super/sub-collection configuration.
type CycleError struct {
	Event  string
	Repeat QName
	Chain  []QName
}

// Error implements the error interface.
func (c *CycleError) Error() string {
	parts := make([]string, 0, len(c.Chain))
	for _, q := range c.Chain {
		parts = append(parts, q.String())
	}
	return fmt.Sprintf("event %s: transform to %s would cycle (chain: %s)",
		c.Event, c.Repeat, strings.Join(parts, " -> "))
}

// xmlEvent is the wire form as encoding/xml reads it; metadata maps flatten
// into field lists.
type xmlEvent struct {
	XMLName      xml.Name  `xml:"AlertEvent"`
	ID           string    `xml:"ID"`
	Type         string    `xml:"Type"`
	Collection   QName     `xml:"Collection"`
	Origin       QName     `xml:"Origin"`
	Chain        []QName   `xml:"Chain>Entry,omitempty"`
	Docs         []xmlDoc  `xml:"Docs>Doc,omitempty"`
	BuildVersion int       `xml:"BuildVersion"`
	OccurredAt   time.Time `xml:"OccurredAt"`
}

type xmlDoc struct {
	ID      string     `xml:"ID"`
	Snippet string     `xml:"Snippet,omitempty"`
	Meta    []xmlField `xml:"Meta,omitempty"`
}

type xmlField struct {
	Name   string   `xml:"name,attr"`
	Values []string `xml:"Value"`
}

// MarshalXMLBytes renders the event as a standalone XML fragment for
// embedding in protocol payloads: the bytes encoding/xml's Marshal emits for
// xmlEvent (testdata/wire is the fence), written without reflection.
func (e *Event) MarshalXMLBytes() ([]byte, error) {
	at, err := e.OccurredAt.UTC().MarshalText()
	if err != nil {
		return nil, fmt.Errorf("event: marshal %s: %w", e.ID, err)
	}
	var w xmlwire.Writer
	names := e.writeXML(&w, at, nil)
	w.Alloc()
	e.writeXML(&w, at, names)
	return w.Bytes(), nil
}

// writeXML writes the event's wire form; names is scratch space for sorting
// one document's metadata field names, returned for the next pass to reuse.
func (e *Event) writeXML(w *xmlwire.Writer, at []byte, names []string) []string {
	w.Markup("<AlertEvent>")
	w.Element("ID", e.ID)
	w.Element("Type", e.Type.String())
	e.Collection.writeXML(w, "Collection")
	e.Origin.writeXML(w, "Origin")
	w.Markup("<Chain>")
	for _, q := range e.Chain {
		q.writeXML(w, "Entry")
	}
	w.Markup("</Chain><Docs>")
	for i := range e.Docs {
		d := &e.Docs[i]
		w.Markup("<Doc>")
		w.Element("ID", d.ID)
		w.OptElement("Snippet", d.Snippet)
		names = names[:0]
		for name := range d.Metadata {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			w.Markup(`<Meta name="`)
			w.String(name)
			w.Markup(`">`)
			for _, v := range d.Metadata[name] {
				w.Element("Value", v)
			}
			w.Markup("</Meta>")
		}
		w.Markup("</Doc>")
	}
	w.Markup("</Docs>")
	w.IntElement("BuildVersion", int64(e.BuildVersion))
	w.Open("OccurredAt")
	w.Text(at)
	w.Markup("</OccurredAt></AlertEvent>")
	return names
}

func (q QName) writeXML(w *xmlwire.Writer, name string) {
	w.Open(name)
	w.Element("Host", q.Host)
	w.Element("Collection", q.Collection)
	w.Close(name)
}

// UnmarshalXMLBytes parses an event fragment produced by MarshalXMLBytes.
// Input outside xmlwire's dialect goes through encoding/xml instead.
func UnmarshalXMLBytes(raw []byte) (*Event, error) {
	if e := scanEvent(raw); e != nil {
		return e, nil
	}
	return unmarshalReflect(raw)
}

// scanEvent decodes a fragment without reflection, or returns nil for
// anything it does not fully understand.
func scanEvent(raw []byte) *Event {
	// '<' never occurs unescaped in text, so this counts the <Doc> elements.
	e := &Event{Docs: make([]DocRef, 0, bytes.Count(raw, []byte("<Doc>")))}
	s := xmlwire.NewScanner(raw)
	for s.Root("AlertEvent"); s.Next(); {
		switch string(s.Name()) {
		case "ID":
			e.ID = s.String()
		case "Type":
			e.Type = typeByName[string(s.Text())]
		case "Collection":
			e.Collection.scan(&s)
		case "Origin":
			e.Origin.scan(&s)
		case "Chain":
			for s.Next() {
				if string(s.Name()) != "Entry" {
					s.Reject()
					break
				}
				var q QName
				q.scan(&s)
				e.Chain = append(e.Chain, q)
			}
		case "Docs":
			for s.Next() {
				if string(s.Name()) != "Doc" {
					s.Reject()
					break
				}
				e.Docs = append(e.Docs, DocRef{})
				e.Docs[len(e.Docs)-1].scan(&s)
			}
		case "BuildVersion":
			e.BuildVersion = s.Int()
		case "OccurredAt":
			if err := e.OccurredAt.UnmarshalText(s.Text()); err != nil {
				s.Reject()
			}
		default:
			s.Reject()
		}
	}
	if !s.Done() || e.Type == 0 {
		return nil // a missing or unknown type is the reflective path's error to report
	}
	return e
}

func (q *QName) scan(s *xmlwire.Scanner) {
	for s.Next() {
		switch string(s.Name()) {
		case "Host":
			q.Host = s.String()
		case "Collection":
			q.Collection = s.String()
		default:
			s.Reject()
		}
	}
}

func (d *DocRef) scan(s *xmlwire.Scanner) {
	for s.Next() {
		switch string(s.Name()) {
		case "ID":
			d.ID = s.String()
		case "Snippet":
			d.Snippet = s.String()
		case "Meta":
			name := s.AttrString("name")
			var values []string
			for s.Next() {
				if string(s.Name()) != "Value" {
					s.Reject()
					break
				}
				values = append(values, s.String())
			}
			if d.Metadata == nil {
				d.Metadata = make(map[string][]string)
			}
			d.Metadata[name] = values
		default:
			s.Reject()
		}
	}
}

// unmarshalReflect is UnmarshalXMLBytes through encoding/xml: the decoder of
// input outside xmlwire's dialect and the oracle scanEvent is fuzzed against.
func unmarshalReflect(raw []byte) (*Event, error) {
	var w xmlEvent
	if err := xml.Unmarshal(raw, &w); err != nil {
		return nil, fmt.Errorf("event: unmarshal: %w", err)
	}
	return w.event()
}

// event converts the wire form back to an Event.
func (w *xmlEvent) event() (*Event, error) {
	typ, err := ParseType(w.Type)
	if err != nil {
		return nil, err
	}
	e := &Event{
		ID:           w.ID,
		Type:         typ,
		Collection:   w.Collection,
		Origin:       w.Origin,
		Chain:        w.Chain,
		BuildVersion: w.BuildVersion,
		OccurredAt:   w.OccurredAt,
	}
	e.Docs = make([]DocRef, 0, len(w.Docs))
	for _, xd := range w.Docs {
		d := DocRef{ID: xd.ID, Snippet: xd.Snippet}
		if len(xd.Meta) > 0 {
			d.Metadata = make(map[string][]string, len(xd.Meta))
			for _, f := range xd.Meta {
				d.Metadata[f.Name] = f.Values
			}
		}
		e.Docs = append(e.Docs, d)
	}
	return e, nil
}

// New builds an event about a collection with its chain initialised.
func New(id string, typ Type, about QName, buildVersion int, docs []DocRef, at time.Time) *Event {
	return &Event{
		ID:           id,
		Type:         typ,
		Collection:   about,
		Origin:       about,
		Chain:        []QName{about},
		Docs:         docs,
		BuildVersion: buildVersion,
		OccurredAt:   at,
	}
}
