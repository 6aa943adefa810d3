// Package protocol defines the XML wire messages exchanged by the Greenstone
// protocol (server ↔ server, receptionist ↔ server) and the GDS protocol
// (directory node ↔ directory node, server ↔ directory node).
//
// The paper's implementation used SOAP; we keep the same request/response XML
// envelope semantics with a plain envelope: a Header carrying routing and
// deduplication metadata and a Body carrying one typed payload. Payload types
// are registered in this package so both transports (in-memory simulation and
// real HTTP) speak exactly the same format.
package protocol

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// MessageType identifies the payload carried by an Envelope.
type MessageType string

// Message types of the GDS protocol.
const (
	// MsgRegisterServer registers a Greenstone server with its GDS node.
	MsgRegisterServer MessageType = "gds.register-server"
	// MsgUnregisterServer removes a Greenstone server registration.
	MsgUnregisterServer MessageType = "gds.unregister-server"
	// MsgRegisterChild attaches a child GDS node to a parent GDS node.
	MsgRegisterChild MessageType = "gds.register-child"
	// MsgResolve asks the directory for the address of a named server.
	MsgResolve MessageType = "gds.resolve"
	// MsgResolveResult answers a MsgResolve.
	MsgResolveResult MessageType = "gds.resolve-result"
	// MsgBroadcast floods a wrapped payload to every server in the tree.
	MsgBroadcast MessageType = "gds.broadcast"
	// MsgMulticast delivers a wrapped payload to the members of a group.
	MsgMulticast MessageType = "gds.multicast"
	// MsgJoinGroup subscribes a server to a multicast group.
	MsgJoinGroup MessageType = "gds.join-group"
	// MsgLeaveGroup removes a server from a multicast group.
	MsgLeaveGroup MessageType = "gds.leave-group"
	// MsgAdvertiseProfiles installs (or replaces) the profile digest of one
	// tree link: a server advertises the digest of its local profiles, a
	// directory node the merged digest of its subtree (content routing).
	MsgAdvertiseProfiles MessageType = "gds.advertise-profiles"
	// MsgUnadvertiseProfiles withdraws an advertised digest; the link falls
	// back to match-all (flood) until a new digest arrives.
	MsgUnadvertiseProfiles MessageType = "gds.unadvertise-profiles"
	// MsgRouteContent disseminates a wrapped payload content-based: the
	// message climbs to the tree root and descends only into subtrees whose
	// advertised digest matches the carried event attributes.
	MsgRouteContent MessageType = "gds.route-content"
	// MsgPing is a liveness probe.
	MsgPing MessageType = "gds.ping"
)

// Message types of the Greenstone protocol, including the alerting
// extensions introduced by the paper.
const (
	// MsgDescribe asks a server to describe its public collections.
	MsgDescribe MessageType = "gs.describe"
	// MsgDescribeResult answers MsgDescribe.
	MsgDescribeResult MessageType = "gs.describe-result"
	// MsgSearch runs a retrieval query against one collection.
	MsgSearch MessageType = "gs.search"
	// MsgSearchResult answers MsgSearch.
	MsgSearchResult MessageType = "gs.search-result"
	// MsgBrowse requests a classifier shelf of a collection.
	MsgBrowse MessageType = "gs.browse"
	// MsgBrowseResult answers MsgBrowse.
	MsgBrowseResult MessageType = "gs.browse-result"
	// MsgGetDocument fetches one document.
	MsgGetDocument MessageType = "gs.get-document"
	// MsgDocumentResult answers MsgGetDocument.
	MsgDocumentResult MessageType = "gs.document-result"
	// MsgCollectData asks a server for the (possibly distributed) data of a
	// collection, following sub-collection references.
	MsgCollectData MessageType = "gs.collect-data"
	// MsgCollectDataResult answers MsgCollectData.
	MsgCollectDataResult MessageType = "gs.collect-data-result"

	// MsgEvent carries an alerting event (flooded via GDS broadcast or
	// forwarded point-to-point over the GS network).
	MsgEvent MessageType = "gs.event"
	// MsgForwardProfile installs an auxiliary profile on a sub-collection's
	// server on behalf of a super-collection's server.
	MsgForwardProfile MessageType = "gs.forward-profile"
	// MsgCancelProfile removes a previously forwarded auxiliary profile.
	MsgCancelProfile MessageType = "gs.cancel-profile"
	// MsgSubscribe registers a user profile at a server.
	MsgSubscribe MessageType = "gs.subscribe"
	// MsgUnsubscribe cancels a user profile.
	MsgUnsubscribe MessageType = "gs.unsubscribe"
	// MsgNotify delivers a notification to a client.
	MsgNotify MessageType = "gs.notify"
	// MsgNotifyBatch delivers a batch of notifications to a client in one
	// round-trip (the delivery pipeline's per-destination batching).
	MsgNotifyBatch MessageType = "gs.notify-batch"
	// MsgNotifyComposite delivers a synthesized composite notification —
	// a completed sequence, a reached accumulation threshold, or a digest
	// flush — carrying the contributing primitive events alongside the
	// synthesized summary event (internal/composite).
	MsgNotifyComposite MessageType = "gs.notify-composite"
	// MsgAttachNotifier asks a server to push a client's notifications to
	// an address; parked mailbox contents drain immediately (reconnect).
	MsgAttachNotifier MessageType = "gs.attach-notifier"
	// MsgDetachNotifier stops pushing; notifications park at the server.
	MsgDetachNotifier MessageType = "gs.detach-notifier"
)

// Message types of the replication protocol (internal/replica): a primary
// alerting server streams its state changes to a standby so the standby can
// be promoted with no loss of subscriptions or undelivered notifications.
const (
	// MsgReplSubscribe replicates one profile (un)subscription — user,
	// composite wrapper or auxiliary — from primary to standby.
	MsgReplSubscribe MessageType = "repl.subscribe"
	// MsgReplWAL replicates mailbox WAL activity (appends and acks) and
	// dedup admissions from primary to standby.
	MsgReplWAL MessageType = "repl.wal"
	// MsgReplAck reports the standby's applied stream position back to the
	// primary. With Resync set it is also the join/catch-up request: the
	// standby asks for a full snapshot before consuming the stream.
	MsgReplAck MessageType = "repl.ack"
	// MsgReplSnapshot carries the primary's full replicable state —
	// subscriptions, mailbox contents, dedup window — so a standby can join
	// or rejoin mid-stream (anti-entropy catch-up).
	MsgReplSnapshot MessageType = "repl.snapshot"
	// MsgReplPromote orders a standby to promote itself to serving primary:
	// re-register with the GDS under the inherited server name and re-issue
	// the routing-mode state (multicast joins / digest advertisements).
	MsgReplPromote MessageType = "repl.promote"
)

// Generic message types.
const (
	// MsgAck acknowledges a request that has no richer result.
	MsgAck MessageType = "ack"
	// MsgError reports a request failure.
	MsgError MessageType = "error"
)

// Envelope is the unit of communication. It mirrors a SOAP envelope: one
// header with routing metadata and one body with a single typed payload,
// stored as canonical XML so envelopes can be relayed without re-encoding.
type Envelope struct {
	XMLName xml.Name `xml:"Envelope"`
	Header  Header   `xml:"Header"`
	Body    Body     `xml:"Body"`
}

// Header carries routing and bookkeeping metadata for an Envelope.
type Header struct {
	// ID is globally unique per message and used for deduplication.
	ID string `xml:"ID"`
	// Type names the payload in Body.
	Type MessageType `xml:"Type"`
	// From is the logical name of the sender (server or GDS node name).
	From string `xml:"From,omitempty"`
	// To is the logical name of the intended recipient, if any. Broadcasts
	// leave it empty; the GDS forwards them anonymously (paper §6).
	To string `xml:"To,omitempty"`
	// TTL bounds forwarding hops; decremented at each relay. Zero means the
	// envelope must not be forwarded further.
	TTL int `xml:"TTL"`
	// Hops counts relays so far, for diagnostics and latency accounting.
	Hops int `xml:"Hops"`
	// TraceID correlates every relay of one logical operation.
	TraceID string `xml:"TraceID,omitempty"`
	// Trace carries the distributed-tracing context of the event this
	// envelope disseminates, in internal/trace wire form
	// ("00-<traceid>-<spanid>-<flags>"). Absent means unsampled, so peers
	// predating the field interoperate unchanged; relays copy it verbatim
	// unless they record a hop span of their own, in which case they
	// re-stamp it with that span as the new parent.
	Trace string `xml:"Trace,omitempty"`
	// SentAtUnixNano is the wall-clock send time at the origin.
	SentAtUnixNano int64 `xml:"SentAt,omitempty"`
	// VirtualLatencyMicros accumulates simulated per-link latency when the
	// envelope travels over the memory transport.
	VirtualLatencyMicros int64 `xml:"VirtualLatencyMicros,omitempty"`
}

// Body wraps the payload XML verbatim.
type Body struct {
	Inner []byte `xml:",innerxml"`
}

// DefaultTTL bounds forwarding in all protocols; the GDS tree is shallow
// (strata in the paper's figures go to 3) but GS-network forwarding chains
// through sub-collections can be longer, and degenerate chain-shaped
// directories deeper still.
const DefaultTTL = 64

var idCounter atomic.Uint64

// NewID returns a process-unique message identifier. IDs embed the sender
// name so that independently generated IDs never collide across processes.
func NewID(sender string) string {
	n := idCounter.Add(1)
	return sender + "-" + strconv.FormatInt(time.Now().UnixNano(), 36) + "-" + strconv.FormatUint(n, 36)
}

// Errors returned by envelope construction and decoding.
var (
	ErrNoPayload      = errors.New("protocol: envelope has no payload")
	ErrTypeMismatch   = errors.New("protocol: payload type mismatch")
	ErrMalformedFrame = errors.New("protocol: malformed frame")
)

// NewEnvelope builds an envelope of the given type with payload encoded as
// XML. The payload may be nil for body-less messages such as pings.
func NewEnvelope(from string, typ MessageType, payload any) (*Envelope, error) {
	env := &Envelope{
		Header: Header{
			ID:             NewID(from),
			Type:           typ,
			From:           from,
			TTL:            DefaultTTL,
			SentAtUnixNano: time.Now().UnixNano(),
		},
	}
	if payload != nil {
		raw, err := xml.Marshal(payload)
		if err != nil {
			return nil, fmt.Errorf("protocol: marshal %s payload: %w", typ, err)
		}
		env.Body.Inner = raw
	}
	return env, nil
}

// MustEnvelope is NewEnvelope for payload types known to marshal; it is used
// in tests and internal call sites where a marshal failure is a programming
// error.
func MustEnvelope(from string, typ MessageType, payload any) *Envelope {
	env, err := NewEnvelope(from, typ, payload)
	if err != nil {
		panic(err)
	}
	return env
}

// Decode unmarshals the envelope payload into dst — a pointer to a zero
// payload value — checking the declared message type first. Byte slices in
// the decoded payload may alias the envelope's body.
func Decode(env *Envelope, want MessageType, dst any) error {
	if env == nil || len(env.Body.Inner) == 0 {
		return ErrNoPayload
	}
	if env.Header.Type != want {
		return fmt.Errorf("%w: have %q want %q", ErrTypeMismatch, env.Header.Type, want)
	}
	if p, ok := dst.(scanDecoder); ok && p.scanXML(env.Body.Inner) {
		return nil
	}
	if err := xml.Unmarshal(env.Body.Inner, dst); err != nil {
		return fmt.Errorf("protocol: unmarshal %s payload: %w", want, err)
	}
	return nil
}

// Clone deep-copies an envelope: the copy shares nothing with the original
// (the in-memory transport's isolation between sender and receiver).
func (e *Envelope) Clone() *Envelope {
	cp := *e
	cp.Body.Inner = bytes.Clone(e.Body.Inner)
	return &cp
}

// Forwardable reports whether the envelope may be relayed one more hop.
func (e *Envelope) Forwardable() bool { return e.Header.TTL > 0 }

// NextHop returns a copy with TTL decremented and hop count incremented,
// ready to be relayed. The copy has a header of its own and shares the body:
// envelope bodies are never modified once built, so a relay re-stamps
// headers without copying the payload it does not read.
func (e *Envelope) NextHop() *Envelope {
	cp := *e
	cp.Header.TTL--
	cp.Header.Hops++
	return &cp
}

// Ack builds the canonical acknowledgement for a request envelope.
func Ack(from string, req *Envelope) *Envelope {
	return &Envelope{Header: Header{
		ID:      NewID(from),
		Type:    MsgAck,
		From:    from,
		To:      req.Header.From,
		TraceID: req.Header.TraceID,
	}}
}

// ErrorPayload describes a remote failure.
type ErrorPayload struct {
	XMLName xml.Name `xml:"Error"`
	Code    string   `xml:"Code"`
	Message string   `xml:"Message"`
}

// Errorf builds an error response envelope.
func Errorf(from, code string, format string, args ...any) *Envelope {
	env, _ := NewEnvelope(from, MsgError, &ErrorPayload{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	})
	return env
}

// AsError converts an error-typed envelope into a Go error; it returns nil
// for any other envelope type.
func AsError(env *Envelope) error {
	if env == nil || env.Header.Type != MsgError {
		return nil
	}
	var p ErrorPayload
	if err := xml.Unmarshal(env.Body.Inner, &p); err != nil {
		return fmt.Errorf("protocol: remote error (undecodable: %v)", err)
	}
	return &RemoteError{Code: p.Code, Message: p.Message, From: env.Header.From}
}

// RemoteError is a failure reported by a remote peer.
type RemoteError struct {
	Code    string
	Message string
	From    string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote error from %s: %s: %s", e.From, e.Code, e.Message)
}
