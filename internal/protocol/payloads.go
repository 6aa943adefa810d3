package protocol

import "encoding/xml"

// This file declares the typed payloads carried inside envelope bodies.
// Richer domain objects (events, profiles, documents) marshal themselves and
// are embedded via their own XML forms; the payloads here are the protocol-
// level records of the GDS and GS protocols.

// RegisterServer registers a Greenstone server with a GDS node
// (paper §4.1: "each server is registered at exactly one service
// installation").
type RegisterServer struct {
	XMLName xml.Name `xml:"RegisterServer"`
	// Name is the network-internal name of the Greenstone server.
	Name string `xml:"Name"`
	// Addr is the transport address at which the server listens.
	Addr string `xml:"Addr"`
}

// UnregisterServer removes a server registration.
type UnregisterServer struct {
	XMLName xml.Name `xml:"UnregisterServer"`
	Name    string   `xml:"Name"`
}

// RegisterChild attaches a child GDS node to a parent.
type RegisterChild struct {
	XMLName xml.Name `xml:"RegisterChild"`
	// NodeID is the identifier of the child GDS node.
	NodeID string `xml:"NodeID"`
	// Addr is the child's transport address.
	Addr string `xml:"Addr"`
	// Stratum is the child's stratum (parent stratum + 1).
	Stratum int `xml:"Stratum"`
}

// Resolve asks the directory for the address of a named server
// (the DNS-like naming service of paper §4.1/§6).
type Resolve struct {
	XMLName xml.Name `xml:"Resolve"`
	Name    string   `xml:"Name"`
	// NoRecurse stops upward delegation; used between GDS nodes to ask
	// "do *you* know this name" during downward fan-out.
	NoRecurse bool `xml:"NoRecurse,omitempty"`
}

// ResolveResult answers Resolve.
type ResolveResult struct {
	XMLName xml.Name `xml:"ResolveResult"`
	Name    string   `xml:"Name"`
	Addr    string   `xml:"Addr,omitempty"`
	Found   bool     `xml:"Found"`
	// Stratum of the GDS node that answered, for diagnostics.
	Stratum int `xml:"Stratum"`
}

// Broadcast wraps an inner envelope to be flooded to every Greenstone server
// registered anywhere in the GDS tree (paper §4.1: "distributed upwards
// within the tree and downwards to all tree leaves").
type Broadcast struct {
	XMLName xml.Name `xml:"Broadcast"`
	// Inner is the marshalled envelope to deliver to each server.
	Inner []byte `xml:"Inner"`
}

// Multicast wraps an inner envelope for the members of one group.
type Multicast struct {
	XMLName xml.Name `xml:"Multicast"`
	Group   string   `xml:"Group"`
	Inner   []byte   `xml:"Inner"`
}

// JoinGroup subscribes a server to a multicast group.
type JoinGroup struct {
	XMLName xml.Name `xml:"JoinGroup"`
	Group   string   `xml:"Group"`
	Name    string   `xml:"Name"`
	Addr    string   `xml:"Addr"`
}

// LeaveGroup removes a server from a multicast group.
type LeaveGroup struct {
	XMLName xml.Name `xml:"LeaveGroup"`
	Group   string   `xml:"Group"`
	Name    string   `xml:"Name"`
}

// AdvertiseProfiles installs the profile digest of one tree link for
// content-based routing. Name identifies the advertiser — the sending
// server itself, or a directory node summarising its whole subtree. The
// digest is a DNF over event-level attributes, one profile-language
// conjunction per entry ("*" is the match-all conjunction); an empty list
// is the explicit "no interests here" that lets the directory prune the
// link entirely.
type AdvertiseProfiles struct {
	XMLName xml.Name `xml:"AdvertiseProfiles"`
	Name    string   `xml:"Name"`
	Digest  []string `xml:"Digest>Conj,omitempty"`
}

// UnadvertiseProfiles withdraws a link's digest. Unlike advertising an
// empty digest (= prune me), withdrawal returns the link to the unwarmed
// match-all state in which it receives every content-routed event.
type UnadvertiseProfiles struct {
	XMLName xml.Name `xml:"UnadvertiseProfiles"`
	Name    string   `xml:"Name"`
}

// EventAttr is one event-level attribute carried by a content-routed
// message so directory nodes can match digests without decoding the inner
// envelope.
type EventAttr struct {
	XMLName xml.Name `xml:"Attr"`
	Name    string   `xml:"name,attr"`
	Value   string   `xml:",chardata"`
}

// RouteContent disseminates a wrapped envelope content-based through the
// directory tree. Flood forces broadcast semantics (the warm-up fallback
// used while routing tables are still being populated).
type RouteContent struct {
	XMLName xml.Name    `xml:"RouteContent"`
	Flood   bool        `xml:"Flood,omitempty"`
	Attrs   []EventAttr `xml:"Attrs>Attr,omitempty"`
	Inner   []byte      `xml:"Inner"`
}

// AttrMap converts the carried attributes to the map form digests match
// against.
func (rc *RouteContent) AttrMap() map[string]string {
	m := make(map[string]string, len(rc.Attrs))
	for _, a := range rc.Attrs {
		m[a.Name] = a.Value
	}
	return m
}

// Describe asks a server to describe its public collections.
type Describe struct {
	XMLName xml.Name `xml:"Describe"`
	// Collection optionally narrows the description to one collection.
	Collection string `xml:"Collection,omitempty"`
}

// CollectionInfo summarises one collection in a DescribeResult.
type CollectionInfo struct {
	XMLName      xml.Name `xml:"CollectionInfo"`
	Name         string   `xml:"Name"`
	Title        string   `xml:"Title,omitempty"`
	Public       bool     `xml:"Public"`
	Virtual      bool     `xml:"Virtual"`
	DocCount     int      `xml:"DocCount"`
	BuildVersion int      `xml:"BuildVersion"`
	// SubCollections lists qualified names ("host.collection") of
	// sub-collections, local and remote.
	SubCollections []string `xml:"SubCollections>Sub,omitempty"`
	// IndexFields lists the metadata fields this collection indexes, which
	// bounds the retrieval functionality profiles may use (paper §5).
	IndexFields []string `xml:"IndexFields>Field,omitempty"`
}

// DescribeResult answers Describe.
type DescribeResult struct {
	XMLName     xml.Name         `xml:"DescribeResult"`
	Host        string           `xml:"Host"`
	Collections []CollectionInfo `xml:"Collections>CollectionInfo,omitempty"`
}

// Search runs a retrieval query against a collection.
type Search struct {
	XMLName    xml.Name `xml:"Search"`
	Collection string   `xml:"Collection"`
	Query      string   `xml:"Query"`
	// Field restricts the search to one metadata field; empty searches text.
	Field string `xml:"Field,omitempty"`
	Limit int    `xml:"Limit,omitempty"`
	// FollowSubs includes distributed sub-collections in the search.
	FollowSubs bool `xml:"FollowSubs,omitempty"`
	// Visited carries the qualified collection names already expanded, the
	// cycle guard for cyclic sub-collection references (paper §1 problem 2).
	Visited []string `xml:"Visited>Name,omitempty"`
}

// SearchHit is one scored result.
type SearchHit struct {
	XMLName    xml.Name `xml:"Hit"`
	DocID      string   `xml:"DocID"`
	Collection string   `xml:"Collection"`
	Score      float64  `xml:"Score"`
	Title      string   `xml:"Title,omitempty"`
}

// SearchResult answers Search.
type SearchResult struct {
	XMLName xml.Name    `xml:"SearchResult"`
	Total   int         `xml:"Total"`
	Hits    []SearchHit `xml:"Hits>Hit,omitempty"`
}

// Browse requests a classifier shelf of a collection.
type Browse struct {
	XMLName    xml.Name `xml:"Browse"`
	Collection string   `xml:"Collection"`
	Classifier string   `xml:"Classifier"`
}

// BrowseBucket is one shelf of a classifier.
type BrowseBucket struct {
	XMLName xml.Name `xml:"Bucket"`
	Label   string   `xml:"Label"`
	DocIDs  []string `xml:"Docs>ID,omitempty"`
}

// BrowseResult answers Browse.
type BrowseResult struct {
	XMLName    xml.Name       `xml:"BrowseResult"`
	Collection string         `xml:"Collection"`
	Classifier string         `xml:"Classifier"`
	Buckets    []BrowseBucket `xml:"Buckets>Bucket,omitempty"`
}

// GetDocument fetches a single document.
type GetDocument struct {
	XMLName    xml.Name `xml:"GetDocument"`
	Collection string   `xml:"Collection"`
	DocID      string   `xml:"DocID"`
}

// MetaField is one metadata key with its values.
type MetaField struct {
	XMLName xml.Name `xml:"Meta"`
	Name    string   `xml:"name,attr"`
	Values  []string `xml:"Value"`
}

// DocumentPayload carries one document over the wire.
type DocumentPayload struct {
	XMLName  xml.Name    `xml:"Document"`
	ID       string      `xml:"ID"`
	MIME     string      `xml:"MIME,omitempty"`
	Metadata []MetaField `xml:"Metadata>Meta,omitempty"`
	Content  string      `xml:"Content,omitempty"`
}

// DocumentResult answers GetDocument.
type DocumentResult struct {
	XMLName  xml.Name         `xml:"DocumentResult"`
	Found    bool             `xml:"Found"`
	Document *DocumentPayload `xml:"Document,omitempty"`
}

// CollectData asks a server for the full data of a collection including its
// distributed sub-collections (paper §3's Hamilton.D → London.E walk).
type CollectData struct {
	XMLName    xml.Name `xml:"CollectData"`
	Collection string   `xml:"Collection"`
	// Visited is the cycle guard of qualified names already expanded.
	Visited []string `xml:"Visited>Name,omitempty"`
}

// CollectDataResult answers CollectData.
type CollectDataResult struct {
	XMLName   xml.Name          `xml:"CollectDataResult"`
	Documents []DocumentPayload `xml:"Documents>Document,omitempty"`
	// Truncated reports that a sub-collection could not be reached; data is
	// best-effort complete (the paper's delayed-until-reconnect semantics
	// apply to alerting, not retrieval).
	Truncated bool `xml:"Truncated,omitempty"`
}

// RawXML embeds pre-marshalled XML verbatim inside a parent element, so
// relays can carry domain payloads (profiles, events, wrapped envelopes)
// without re-encoding or even understanding them.
type RawXML struct {
	Inner []byte `xml:",innerxml"`
}

// Wrap stores raw XML. Unmarshalled RawXML values expose the inner XML of
// the wrapping element via Bytes.
func Wrap(raw []byte) RawXML { return RawXML{Inner: raw} }

// Bytes returns the embedded XML.
func (r RawXML) Bytes() []byte { return r.Inner }

// Subscribe registers a user profile. The profile XML (internal/profile) is
// embedded verbatim.
type Subscribe struct {
	XMLName xml.Name `xml:"Subscribe"`
	Client  string   `xml:"Client"`
	Profile RawXML   `xml:"Profile"`
}

// Unsubscribe cancels a user profile.
type Unsubscribe struct {
	XMLName   xml.Name `xml:"Unsubscribe"`
	Client    string   `xml:"Client"`
	ProfileID string   `xml:"ProfileID"`
}

// ForwardProfile installs an auxiliary profile at a sub-collection's server
// (paper §4.2). The profile XML is embedded verbatim.
type ForwardProfile struct {
	XMLName xml.Name `xml:"ForwardProfile"`
	Profile RawXML   `xml:"Profile"`
}

// CancelProfile removes a forwarded auxiliary profile.
type CancelProfile struct {
	XMLName   xml.Name `xml:"CancelProfile"`
	ProfileID string   `xml:"ProfileID"`
}

// EventPayload carries an alerting event; the event XML (internal/event) is
// embedded verbatim so relays need not understand it.
type EventPayload struct {
	XMLName xml.Name `xml:"EventPayload"`
	// TransformTo, when set on a GS-network forwarded event, names the
	// super-collection ("Host.Collection") the receiving server must rename
	// the event to before re-broadcasting (paper §4.2). Empty on GDS
	// broadcast deliveries.
	TransformTo string `xml:"TransformTo,omitempty"`
	Event       RawXML `xml:"Event"`
}

// Notify delivers a notification to a client. For synthesized composite
// alerts travelling inside a MsgNotifyBatch, Composite names the operator
// and Contributing carries the primitive events — keeping a mixed batch a
// single atomic envelope (a partial multi-envelope send would redeliver
// its delivered prefix after a failure).
type Notify struct {
	XMLName   xml.Name `xml:"Notify"`
	Client    string   `xml:"Client"`
	ProfileID string   `xml:"ProfileID"`
	// Composite is the composite operator ("sequence", "count", "digest");
	// empty for primitive alerts.
	Composite string `xml:"Composite,omitempty"`
	// Class is the QoS priority class of the subscription ("realtime",
	// "normal", "bulk"); empty means normal (pre-QoS senders).
	Class        string   `xml:"Class,omitempty"`
	Event        RawXML   `xml:"Event"`
	Contributing []RawXML `xml:"Contributing>Event,omitempty"`
}

// NotifyBatch delivers several notifications to one client in a single
// envelope, amortising transport round-trips (delivery pipeline batching).
type NotifyBatch struct {
	XMLName xml.Name `xml:"NotifyBatch"`
	Items   []Notify `xml:"Items>Notify,omitempty"`
}

// CompositeNotify delivers one synthesized composite notification: Event
// is the synthesized composite-alert event and Contributing are the
// primitive events that completed the sequence, reached the accumulation
// threshold, or accrued over the digest period (in arrival order).
type CompositeNotify struct {
	XMLName   xml.Name `xml:"CompositeNotify"`
	Client    string   `xml:"Client"`
	ProfileID string   `xml:"ProfileID"`
	// Kind is the composite operator: "sequence", "count" or "digest".
	Kind   string   `xml:"Kind"`
	DocIDs []string `xml:"Docs>ID,omitempty"`
	// Class is the QoS priority class ("realtime", "normal", "bulk");
	// empty means normal. QoS bulk coalescing delivers its digests with
	// Kind "digest" and Class "bulk".
	Class        string   `xml:"Class,omitempty"`
	Event        RawXML   `xml:"Event"`
	Contributing []RawXML `xml:"Contributing>Event,omitempty"`
}

// AttachNotifier subscribes a client address to push delivery of the
// client's notifications; anything parked in the client's server-side
// mailbox drains immediately (paper §7 reconnect, applied to alerts).
type AttachNotifier struct {
	XMLName xml.Name `xml:"AttachNotifier"`
	Client  string   `xml:"Client"`
	// Addr is the transport address MsgNotify/MsgNotifyBatch envelopes are
	// pushed to.
	Addr string `xml:"Addr"`
}

// DetachNotifier stops push delivery for a client; subsequent notifications
// park in the client's server-side mailbox until it re-attaches.
type DetachNotifier struct {
	XMLName xml.Name `xml:"DetachNotifier"`
	Client  string   `xml:"Client"`
}

// ReplProfileOp replicates one profile (un)subscription from a primary
// alerting server to its standby (MsgReplSubscribe). Seq is the primary's
// stream position; the standby applies records in stream order and requests
// a snapshot when it detects a gap.
type ReplProfileOp struct {
	XMLName xml.Name `xml:"ReplProfileOp"`
	Seq     uint64   `xml:"Seq"`
	// Op is "subscribe" or "unsubscribe".
	Op string `xml:"Op"`
	// Client owns the profile; empty for auxiliary profiles (which have no
	// owning client at the hosting server).
	Client string `xml:"Client,omitempty"`
	// ProfileID identifies the profile on unsubscribe.
	ProfileID string `xml:"ProfileID,omitempty"`
	// IDSeq is the primary's profile-ID counter at send time; the standby
	// seeds its own counter so post-promotion IDs never collide with
	// primary-minted ones.
	IDSeq uint64 `xml:"IDSeq,omitempty"`
	// Profile is the profile XML on subscribe (user, composite wrapper or
	// auxiliary — the same wire form MsgSubscribe uses).
	Profile RawXML `xml:"Profile"`
}

// ReplWALItem is one replicated state-change record inside a ReplWAL batch.
type ReplWALItem struct {
	XMLName xml.Name `xml:"Item"`
	// Kind is "append" (mailbox WAL append), "ack" (delivery/eviction) or
	// "dedup" (event-ID admission to the duplicate-suppression window).
	Kind string `xml:"Kind"`
	// Client is the mailbox owner for append/ack records.
	Client string `xml:"Client,omitempty"`
	// MailboxSeq is the primary's per-mailbox sequence for append/ack.
	MailboxSeq uint64 `xml:"MailboxSeq,omitempty"`
	// DedupID is the admitted event ID for dedup records.
	DedupID string `xml:"DedupID,omitempty"`
	// Notification is the persisted notification XML (the delivery WAL
	// form) for append records.
	Notification RawXML `xml:"Notification"`
}

// ReplWAL replicates a batch of mailbox WAL records and dedup admissions
// (MsgReplWAL). One envelope carries a run of consecutive stream records
// (e.g. a publish's appends with the evictions they caused, a flush pass's
// acks and the dedup admissions queued beside them), applied in item order
// as one stream position.
type ReplWAL struct {
	XMLName xml.Name      `xml:"ReplWAL"`
	Seq     uint64        `xml:"Seq"`
	Items   []ReplWALItem `xml:"Items>Item,omitempty"`
}

// ReplAck reports the standby's applied stream position (MsgReplAck). The
// standby returns it as the response to every stream envelope; with Resync
// set it asks the primary for a snapshot instead (join, rejoin after a gap,
// or recovery from an apply failure). As a standalone request to the
// primary's replication endpoint it is the join handshake: Addr names the
// standby's own endpoint and the response is the MsgReplSnapshot.
type ReplAck struct {
	XMLName    xml.Name `xml:"ReplAck"`
	AppliedSeq uint64   `xml:"AppliedSeq"`
	Resync     bool     `xml:"Resync,omitempty"`
	// Addr is the standby's replication endpoint (join handshake only).
	Addr string `xml:"Addr,omitempty"`
	// ServerName is the primary name the standby stands by for, a sanity
	// check against cross-wired replication pairs.
	ServerName string `xml:"ServerName,omitempty"`
	// QoSBuckets carries the primary's current token-bucket levels on
	// heartbeat responses, keeping the standby's quota view fresh between
	// snapshots so a promotion does not reset admission state.
	QoSBuckets []ReplQoSBucket `xml:"QoS>Bucket,omitempty"`
}

// ReplQoSBucket is one admission-control token bucket's replicated level
// (qos.BucketState on the wire).
type ReplQoSBucket struct {
	XMLName xml.Name `xml:"Bucket"`
	// Dimension is the quota dimension: "subscriber" or "collection".
	Dimension string `xml:"dimension,attr"`
	// Key is the subscriber or collection name.
	Key string `xml:"Key"`
	// Tokens is the stored token level.
	Tokens float64 `xml:"Tokens"`
	// LastUnixNano is the bucket's last-touch time the refill math is
	// relative to (UnixNano; 0 = never touched).
	LastUnixNano int64 `xml:"Last,omitempty"`
}

// ReplMailboxEntry is one undelivered notification inside a snapshot.
type ReplMailboxEntry struct {
	XMLName      xml.Name `xml:"Entry"`
	Seq          uint64   `xml:"Seq"`
	Notification RawXML   `xml:"Notification"`
}

// ReplMailbox is one user's mailbox inside a snapshot.
type ReplMailbox struct {
	XMLName xml.Name           `xml:"Mailbox"`
	Client  string             `xml:"Client"`
	NextSeq uint64             `xml:"NextSeq"`
	Entries []ReplMailboxEntry `xml:"Entries>Entry,omitempty"`
}

// ReplSnapshot carries the primary's full replicable state (MsgReplSnapshot):
// every subscription (the core.SaveSubscriptions XML), every undelivered
// mailbox entry, and the dedup window, stamped with the stream position Seq
// as of which the snapshot is consistent. Stream records with lower
// sequences are duplicates of snapshot content and are skipped by the
// standby.
type ReplSnapshot struct {
	XMLName xml.Name `xml:"ReplSnapshot"`
	Seq     uint64   `xml:"Seq"`
	// Server is the primary's server name (the identity the standby
	// inherits on promotion).
	Server string `xml:"Server"`
	// Mode is the primary's routing mode, re-established on promotion.
	Mode string `xml:"Mode,omitempty"`
	// IDSeq seeds the standby's profile-ID counter.
	IDSeq uint64 `xml:"IDSeq,omitempty"`
	// Subscriptions is the <Subscriptions> document of core.SaveSubscriptions.
	Subscriptions RawXML        `xml:"Subscriptions"`
	Mailboxes     []ReplMailbox `xml:"Mailboxes>Mailbox,omitempty"`
	DedupIDs      []string      `xml:"Dedup>ID,omitempty"`
	// QoSBuckets carries the primary's token-bucket levels so promotion
	// does not reset admission quotas.
	QoSBuckets []ReplQoSBucket `xml:"QoS>Bucket,omitempty"`
}

// ReplPromote orders a standby to promote itself (MsgReplPromote). Mode
// optionally overrides the routing mode inherited from the stream.
type ReplPromote struct {
	XMLName xml.Name `xml:"ReplPromote"`
	Mode    string   `xml:"Mode,omitempty"`
}

// Ping is a liveness probe; Seq echoes back in the ack trace.
type Ping struct {
	XMLName xml.Name `xml:"Ping"`
	Seq     int      `xml:"Seq"`
}
