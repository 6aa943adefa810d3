package protocol

import (
	"encoding/xml"
	"fmt"

	"github.com/gsalert/gsalert/internal/xmlwire"
)

// This file puts the envelope, and the decoding of the payloads the wire
// workloads carry per event, on internal/xmlwire: scan decoders that read
// only the fields they use and carry nested XML as sub-slices of the input,
// and an envelope writer that emits the bytes encoding/xml's Marshal emitted
// (testdata/wire is the fence). Payloads are still encoded by xml.Marshal in
// NewEnvelope. docs/WIRE.md describes the canonical form, the fall-back rule
// and how to give another payload type a scan decoder.

// scanDecoder is implemented by the payload types Decode reads without
// encoding/xml. scanXML decodes the document raw into the receiver and
// reports whether it understood all of it; on false the receiver is
// untouched and raw goes to encoding/xml, which decodes it or explains what
// is wrong with it.
type scanDecoder interface {
	scanXML(raw []byte) bool
}

// Marshal renders the envelope as a standalone XML document.
func Marshal(env *Envelope) ([]byte, error) {
	var w xmlwire.Writer
	env.writeXML(&w)
	w.Alloc()
	env.writeXML(&w)
	return w.Bytes(), nil
}

func (e *Envelope) writeXML(w *xmlwire.Writer) {
	h := &e.Header
	w.Markup(xmlwire.Header + "<Envelope><Header>")
	w.Element("ID", h.ID)
	w.Element("Type", string(h.Type))
	w.OptElement("From", h.From)
	w.OptElement("To", h.To)
	w.IntElement("TTL", int64(h.TTL))
	w.IntElement("Hops", int64(h.Hops))
	w.OptElement("TraceID", h.TraceID)
	w.OptElement("Trace", h.Trace)
	if h.SentAtUnixNano != 0 {
		w.IntElement("SentAt", h.SentAtUnixNano)
	}
	if h.VirtualLatencyMicros != 0 {
		w.IntElement("VirtualLatencyMicros", h.VirtualLatencyMicros)
	}
	w.Markup("</Header>")
	w.RawElement("Body", e.Body.Inner)
	w.Markup("</Envelope>")
}

// Unmarshal parses a standalone XML document into an Envelope. The envelope
// owns data from then on: its Body.Inner is a sub-slice of it, so the caller
// must neither modify nor reuse the buffer.
func Unmarshal(data []byte) (*Envelope, error) {
	env := new(Envelope)
	if env.scanXML(data) && env.Header.Type != "" {
		return env, nil
	}
	return unmarshalReflect(data)
}

// unmarshalReflect is Unmarshal through encoding/xml: the decoder of every
// input outside xmlwire's dialect — whatever a peer of another version or
// another implementation may send — and the oracle the scan decoder is
// fuzzed against.
func unmarshalReflect(data []byte) (*Envelope, error) {
	var env Envelope
	if err := xml.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformedFrame, err)
	}
	if env.Header.Type == "" {
		return nil, fmt.Errorf("%w: missing header type", ErrMalformedFrame)
	}
	return &env, nil
}

func (e *Envelope) scanXML(data []byte) bool {
	v := Envelope{XMLName: xml.Name{Local: "Envelope"}}
	s := xmlwire.NewScanner(data)
	for s.Root("Envelope"); s.Next(); {
		switch string(s.Name()) {
		case "Header":
			v.Header.scan(&s)
		case "Body":
			v.Body.Inner = s.Raw()
		default:
			s.Reject()
		}
	}
	if !s.Done() {
		return false
	}
	*e = v
	return true
}

func (h *Header) scan(s *xmlwire.Scanner) {
	for s.Next() {
		switch string(s.Name()) {
		case "ID":
			h.ID = s.String()
		case "Type":
			h.Type = MessageType(s.String())
		case "From":
			h.From = s.String()
		case "To":
			h.To = s.String()
		case "TTL":
			h.TTL = s.Int()
		case "Hops":
			h.Hops = s.Int()
		case "TraceID":
			h.TraceID = s.String()
		case "Trace":
			h.Trace = s.String()
		case "SentAt":
			h.SentAtUnixNano = s.Int64()
		case "VirtualLatencyMicros":
			h.VirtualLatencyMicros = s.Int64()
		default:
			s.Reject()
		}
	}
}

// ---------------------------------------------------------------------------
// Relay payloads: the wrapped envelope travels as escaped text.

func (b *Broadcast) scanXML(raw []byte) bool {
	v := Broadcast{XMLName: xml.Name{Local: "Broadcast"}}
	s := xmlwire.NewScanner(raw)
	for s.Root("Broadcast"); s.Next(); {
		switch string(s.Name()) {
		case "Inner":
			v.Inner = s.Bytes()
		default:
			s.Reject()
		}
	}
	if !s.Done() {
		return false
	}
	*b = v
	return true
}

func (m *Multicast) scanXML(raw []byte) bool {
	v := Multicast{XMLName: xml.Name{Local: "Multicast"}}
	s := xmlwire.NewScanner(raw)
	for s.Root("Multicast"); s.Next(); {
		switch string(s.Name()) {
		case "Group":
			v.Group = s.String()
		case "Inner":
			v.Inner = s.Bytes()
		default:
			s.Reject()
		}
	}
	if !s.Done() {
		return false
	}
	*m = v
	return true
}

func (rc *RouteContent) scanXML(raw []byte) bool {
	v := RouteContent{XMLName: xml.Name{Local: "RouteContent"}}
	s := xmlwire.NewScanner(raw)
	for s.Root("RouteContent"); s.Next(); {
		switch string(s.Name()) {
		case "Flood":
			v.Flood = s.Bool()
		case "Attrs":
			for s.Next() {
				if string(s.Name()) != "Attr" {
					s.Reject()
					break
				}
				a := EventAttr{XMLName: xml.Name{Local: "Attr"}, Name: s.AttrString("name")}
				a.Value = s.String()
				v.Attrs = append(v.Attrs, a)
			}
		case "Inner":
			v.Inner = s.Bytes()
		default:
			s.Reject()
		}
	}
	if !s.Done() {
		return false
	}
	*rc = v
	return true
}

// ---------------------------------------------------------------------------
// Event and notification payloads: the event XML stays raw.

func (p *EventPayload) scanXML(raw []byte) bool {
	v := EventPayload{XMLName: xml.Name{Local: "EventPayload"}}
	s := xmlwire.NewScanner(raw)
	for s.Root("EventPayload"); s.Next(); {
		switch string(s.Name()) {
		case "TransformTo":
			v.TransformTo = s.String()
		case "Event":
			v.Event.Inner = s.Raw()
		default:
			s.Reject()
		}
	}
	if !s.Done() {
		return false
	}
	*p = v
	return true
}

func (n *Notify) scanXML(raw []byte) bool {
	var v Notify
	s := xmlwire.NewScanner(raw)
	s.Root("Notify")
	v.scan(&s)
	if !s.Done() {
		return false
	}
	*n = v
	return true
}

// scan reads the children of a <Notify> element.
func (n *Notify) scan(s *xmlwire.Scanner) {
	n.XMLName = xml.Name{Local: "Notify"}
	for s.Next() {
		switch string(s.Name()) {
		case "Client":
			n.Client = s.String()
		case "ProfileID":
			n.ProfileID = s.String()
		case "Composite":
			n.Composite = s.String()
		case "Class":
			n.Class = s.String()
		case "Event":
			n.Event.Inner = s.Raw()
		case "Contributing":
			for s.Next() {
				if string(s.Name()) != "Event" {
					s.Reject()
					break
				}
				n.Contributing = append(n.Contributing, RawXML{Inner: s.Raw()})
			}
		default:
			s.Reject()
		}
	}
}

func (b *NotifyBatch) scanXML(raw []byte) bool {
	v := NotifyBatch{XMLName: xml.Name{Local: "NotifyBatch"}}
	s := xmlwire.NewScanner(raw)
	for s.Root("NotifyBatch"); s.Next(); {
		if string(s.Name()) != "Items" {
			s.Reject()
			break
		}
		for s.Next() {
			if string(s.Name()) != "Notify" {
				s.Reject()
				break
			}
			v.Items = append(v.Items, Notify{})
			v.Items[len(v.Items)-1].scan(&s)
		}
	}
	if !s.Done() {
		return false
	}
	*b = v
	return true
}

// ---------------------------------------------------------------------------
// Replication stream.

func (r *ReplWAL) scanXML(raw []byte) bool {
	v := ReplWAL{XMLName: xml.Name{Local: "ReplWAL"}}
	s := xmlwire.NewScanner(raw)
	for s.Root("ReplWAL"); s.Next(); {
		switch string(s.Name()) {
		case "Seq":
			v.Seq = s.Uint64()
		case "Items":
			for s.Next() {
				if string(s.Name()) != "Item" {
					s.Reject()
					break
				}
				v.Items = append(v.Items, ReplWALItem{XMLName: xml.Name{Local: "Item"}})
				v.Items[len(v.Items)-1].scan(&s)
			}
		default:
			s.Reject()
		}
	}
	if !s.Done() {
		return false
	}
	*r = v
	return true
}

func (it *ReplWALItem) scan(s *xmlwire.Scanner) {
	for s.Next() {
		switch string(s.Name()) {
		case "Kind":
			it.Kind = s.String()
		case "Client":
			it.Client = s.String()
		case "MailboxSeq":
			it.MailboxSeq = s.Uint64()
		case "DedupID":
			it.DedupID = s.String()
		case "Notification":
			it.Notification.Inner = s.Raw()
		default:
			s.Reject()
		}
	}
}

func (a *ReplAck) scanXML(raw []byte) bool {
	v := ReplAck{XMLName: xml.Name{Local: "ReplAck"}}
	s := xmlwire.NewScanner(raw)
	for s.Root("ReplAck"); s.Next(); {
		switch string(s.Name()) {
		case "AppliedSeq":
			v.AppliedSeq = s.Uint64()
		case "Resync":
			v.Resync = s.Bool()
		case "Addr":
			v.Addr = s.String()
		case "ServerName":
			v.ServerName = s.String()
		case "QoS":
			for s.Next() {
				if string(s.Name()) != "Bucket" {
					s.Reject()
					break
				}
				b := ReplQoSBucket{XMLName: xml.Name{Local: "Bucket"}, Dimension: s.AttrString("dimension")}
				for s.Next() {
					switch string(s.Name()) {
					case "Key":
						b.Key = s.String()
					case "Tokens":
						b.Tokens = s.Float64()
					case "Last":
						b.LastUnixNano = s.Int64()
					default:
						s.Reject()
					}
				}
				v.QoSBuckets = append(v.QoSBuckets, b)
			}
		default:
			s.Reject()
		}
	}
	if !s.Done() {
		return false
	}
	*a = v
	return true
}
