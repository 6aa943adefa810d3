// Package greenstone implements the distributed Greenstone server and
// receptionist of paper §3: servers host collections (federated,
// distributed, virtual, private) and answer the SOAP-style Greenstone
// protocol — describe, search, browse, document retrieval, and distributed
// data collection that follows sub-collection references across hosts — and
// the alerting extensions (subscribe, forwarded profiles, forwarded events)
// that hand off to the core alerting service.
package greenstone

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/transport"
)

// Server is one Greenstone server installation on a host.
type Server struct {
	name  string
	tr    transport.Transport
	store *collection.Store
	alert *core.Service
	// resolver maps host names to addresses for server-to-server calls
	// (distributed collections); usually the GDS naming service.
	resolver core.Resolver

	listener io.Closer
	evSeq    func() string
	clock    func() time.Time
}

// ServerConfig assembles a Server.
type ServerConfig struct {
	// Name is the host/server name ("Hamilton").
	Name string
	// Addr is the transport address to listen on.
	Addr string
	// Transport carries all protocol traffic.
	Transport transport.Transport
	// Store holds the collections; a fresh one is created when nil.
	Store *collection.Store
	// Alerting is the server's alerting service; optional (a server can run
	// without alerting, as stock Greenstone does).
	Alerting *core.Service
	// Resolver maps host names to addresses for distributed retrieval.
	Resolver core.Resolver
	// Clock overrides time.Now for deterministic tests.
	Clock func() time.Time
}

// NewServer builds and starts a server (it listens immediately).
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Name == "" || cfg.Addr == "" {
		return nil, errors.New("greenstone: server needs name and addr")
	}
	if cfg.Transport == nil {
		return nil, errors.New("greenstone: server needs a transport")
	}
	store := cfg.Store
	if store == nil {
		store = collection.NewStore(cfg.Name)
	}
	if store.Host() != cfg.Name {
		return nil, fmt.Errorf("greenstone: store host %q does not match server %q", store.Host(), cfg.Name)
	}
	s := &Server{
		name:     cfg.Name,
		tr:       cfg.Transport,
		store:    store,
		alert:    cfg.Alerting,
		resolver: cfg.Resolver,
		clock:    cfg.Clock,
	}
	if s.clock == nil {
		s.clock = time.Now
	}
	seq := 0
	s.evSeq = func() string {
		seq++
		return fmt.Sprintf("%s-ev-%d-%d", s.name, s.clock().UnixNano(), seq)
	}
	l, err := cfg.Transport.Listen(cfg.Addr, transport.HandlerFunc(s.handle))
	if err != nil {
		return nil, fmt.Errorf("greenstone: %s listen: %w", cfg.Name, err)
	}
	s.listener = l
	return s, nil
}

// Name returns the server name.
func (s *Server) Name() string { return s.name }

// Close stops listening.
func (s *Server) Close() error {
	if s.listener != nil {
		return s.listener.Close()
	}
	return nil
}

// AddCollection creates a collection from cfg and, when alerting is on,
// synchronises auxiliary profiles for its remote sub-collections.
func (s *Server) AddCollection(ctx context.Context, cfg collection.Config) (*collection.Collection, error) {
	coll, err := s.store.Add(cfg)
	if err != nil {
		return nil, err
	}
	if s.alert != nil {
		if err := s.alert.SyncAuxProfiles(ctx); err != nil {
			return nil, err
		}
	}
	return coll, nil
}

// Reconfigure replaces a collection's configuration and re-synchronises
// auxiliary profiles (collection restructuring, paper §1 problem 1).
func (s *Server) Reconfigure(ctx context.Context, cfg collection.Config) error {
	coll, err := s.store.Get(cfg.Name)
	if err != nil {
		return err
	}
	if err := coll.SetConfig(cfg); err != nil {
		return err
	}
	if s.alert != nil {
		return s.alert.SyncAuxProfiles(ctx)
	}
	return nil
}

// RemoveCollection deletes a collection, emits a collection-removed event
// and withdraws auxiliary profiles for its remote subs.
func (s *Server) RemoveCollection(ctx context.Context, name string) error {
	coll, err := s.store.Get(name)
	if err != nil {
		return err
	}
	qn := coll.QName()
	version := coll.BuildVersion()
	if err := s.store.Remove(name); err != nil {
		return err
	}
	if s.alert == nil {
		return nil
	}
	if err := s.alert.SyncAuxProfiles(ctx); err != nil {
		return err
	}
	ev := event.New(s.evSeq(), event.TypeCollectionRemoved, qn, version, nil, s.clock())
	res := &collection.BuildResult{Collection: qn, Version: version, Events: []*event.Event{ev}}
	_, err = s.alert.PublishBuild(ctx, res)
	return err
}

// Build (re)builds a collection from docs and publishes the resulting
// events through the alerting service. It returns the build result with the
// alerting filter time filled in, for the E1 overhead measurement.
func (s *Server) Build(ctx context.Context, name string, docs []*collection.Document) (*collection.BuildResult, time.Duration, error) {
	coll, err := s.store.Get(name)
	if err != nil {
		return nil, 0, err
	}
	res, err := coll.Build(docs, s.clock(), s.evSeq)
	if err != nil {
		return nil, 0, err
	}
	var filterTime time.Duration
	if s.alert != nil {
		filterTime, err = s.alert.PublishBuild(ctx, res)
		if err != nil {
			return res, filterTime, err
		}
	}
	return res, filterTime, nil
}

// handle dispatches the Greenstone protocol.
func (s *Server) handle(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
	switch env.Header.Type {
	case protocol.MsgDescribe:
		return s.handleDescribe(env)
	case protocol.MsgSearch:
		return s.handleSearch(ctx, env)
	case protocol.MsgBrowse:
		return s.handleBrowse(env)
	case protocol.MsgGetDocument:
		return s.handleGetDocument(env)
	case protocol.MsgCollectData:
		return s.handleCollectData(ctx, env)
	case protocol.MsgPing:
		return protocol.Ack(s.name, env), nil
	case protocol.MsgEvent:
		if s.alert == nil {
			return protocol.Errorf(s.name, "no-alerting", "server %s has alerting disabled", s.name), nil
		}
		if err := s.alert.HandleEventEnvelope(ctx, env); err != nil {
			return protocol.Errorf(s.name, "event", "%v", err), nil
		}
		return protocol.Ack(s.name, env), nil
	case protocol.MsgForwardProfile:
		if s.alert == nil {
			return protocol.Errorf(s.name, "no-alerting", "server %s has alerting disabled", s.name), nil
		}
		if err := s.alert.HandleForwardProfile(env); err != nil {
			return protocol.Errorf(s.name, "forward-profile", "%v", err), nil
		}
		return protocol.Ack(s.name, env), nil
	case protocol.MsgCancelProfile:
		if s.alert == nil {
			return protocol.Errorf(s.name, "no-alerting", "server %s has alerting disabled", s.name), nil
		}
		if err := s.alert.HandleCancelProfile(env); err != nil {
			return protocol.Errorf(s.name, "cancel-profile", "%v", err), nil
		}
		return protocol.Ack(s.name, env), nil
	case protocol.MsgSubscribe:
		return s.handleSubscribe(env)
	case protocol.MsgUnsubscribe:
		return s.handleUnsubscribe(env)
	case protocol.MsgAttachNotifier:
		return s.handleAttachNotifier(env)
	case protocol.MsgDetachNotifier:
		return s.handleDetachNotifier(env)
	default:
		return protocol.Errorf(s.name, "unsupported", "server %s cannot handle %s", s.name, env.Header.Type), nil
	}
}

func (s *Server) handleDescribe(env *protocol.Envelope) (*protocol.Envelope, error) {
	var d protocol.Describe
	if err := protocol.Decode(env, protocol.MsgDescribe, &d); err != nil {
		return protocol.Errorf(s.name, "decode", "%v", err), nil
	}
	result := protocol.DescribeResult{Host: s.name}
	describeOne := func(c *collection.Collection) protocol.CollectionInfo {
		cfg := c.Config()
		info := protocol.CollectionInfo{
			Name:         cfg.Name,
			Title:        cfg.Title,
			Public:       cfg.Public,
			Virtual:      c.IsVirtual(),
			DocCount:     c.Len(),
			BuildVersion: c.BuildVersion(),
			IndexFields:  cfg.IndexFields,
		}
		for _, sub := range cfg.Subs {
			host := sub.Host
			if host == "" {
				host = s.name
			}
			info.SubCollections = append(info.SubCollections, host+"."+sub.Name)
		}
		return info
	}
	if d.Collection != "" {
		c, err := s.store.Get(d.Collection)
		if err != nil {
			return protocol.Errorf(s.name, "not-found", "collection %q", d.Collection), nil
		}
		result.Collections = append(result.Collections, describeOne(c))
	} else {
		for _, c := range s.store.All() {
			// Private collections are invisible in their own right
			// (paper §3: London.G).
			if !c.Public() {
				continue
			}
			result.Collections = append(result.Collections, describeOne(c))
		}
	}
	return protocol.MustEnvelope(s.name, protocol.MsgDescribeResult, &result), nil
}

// handleSearch runs a retrieval query, optionally expanding distributed
// sub-collections across hosts with a cycle guard (paper §3's data access
// walk, paper §1 problem 2).
func (s *Server) handleSearch(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
	var q protocol.Search
	if err := protocol.Decode(env, protocol.MsgSearch, &q); err != nil {
		return protocol.Errorf(s.name, "decode", "%v", err), nil
	}
	hits, truncated, err := s.searchCollection(ctx, &q)
	if err != nil {
		return protocol.Errorf(s.name, "search", "%v", err), nil
	}
	_ = truncated
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		if hits[i].Collection != hits[j].Collection {
			return hits[i].Collection < hits[j].Collection
		}
		return hits[i].DocID < hits[j].DocID
	})
	if q.Limit > 0 && len(hits) > q.Limit {
		hits = hits[:q.Limit]
	}
	return protocol.MustEnvelope(s.name, protocol.MsgSearchResult, &protocol.SearchResult{
		Total: len(hits),
		Hits:  hits,
	}), nil
}

func (s *Server) searchCollection(ctx context.Context, q *protocol.Search) ([]protocol.SearchHit, bool, error) {
	coll, err := s.store.Get(q.Collection)
	if err != nil {
		return nil, false, err
	}
	qualified := s.name + "." + q.Collection
	for _, v := range q.Visited {
		if v == qualified {
			return nil, false, nil // cycle: already expanded
		}
	}
	visited := append(append([]string(nil), q.Visited...), qualified)

	localHits, err := coll.Search(q.Query, q.Field, 0)
	if err != nil {
		return nil, false, err
	}
	hits := make([]protocol.SearchHit, 0, len(localHits))
	for _, h := range localHits {
		title := ""
		if d, ok := coll.Doc(h.DocID); ok {
			title = d.Title()
		}
		hits = append(hits, protocol.SearchHit{
			DocID:      h.DocID,
			Collection: qualified,
			Score:      h.Score,
			Title:      title,
		})
	}
	if !q.FollowSubs {
		return hits, false, nil
	}

	truncated := false
	cfg := coll.Config()
	for _, ref := range cfg.Subs {
		subQ := protocol.Search{
			Collection: ref.Name,
			Query:      q.Query,
			Field:      q.Field,
			FollowSubs: true,
			Visited:    visited,
		}
		if ref.Host == "" || ref.Host == s.name {
			subHits, _, err := s.searchCollection(ctx, &subQ)
			if err != nil {
				truncated = true
				continue
			}
			hits = append(hits, subHits...)
			continue
		}
		remote, err := s.callRemoteSearch(ctx, ref.Host, &subQ)
		if err != nil {
			truncated = true // unreachable sub-collection: best-effort result
			continue
		}
		hits = append(hits, remote...)
	}
	return hits, truncated, nil
}

func (s *Server) callRemoteSearch(ctx context.Context, host string, q *protocol.Search) ([]protocol.SearchHit, error) {
	if s.resolver == nil {
		return nil, fmt.Errorf("greenstone: %s has no resolver for remote search", s.name)
	}
	addr, err := s.resolver.Resolve(ctx, host)
	if err != nil {
		return nil, err
	}
	env, err := protocol.NewEnvelope(s.name, protocol.MsgSearch, q)
	if err != nil {
		return nil, err
	}
	var res protocol.SearchResult
	if err := transport.SendExpect(ctx, s.tr, addr, env, protocol.MsgSearchResult, &res); err != nil {
		return nil, err
	}
	return res.Hits, nil
}

func (s *Server) handleBrowse(env *protocol.Envelope) (*protocol.Envelope, error) {
	var b protocol.Browse
	if err := protocol.Decode(env, protocol.MsgBrowse, &b); err != nil {
		return protocol.Errorf(s.name, "decode", "%v", err), nil
	}
	coll, err := s.store.Get(b.Collection)
	if err != nil {
		return protocol.Errorf(s.name, "not-found", "collection %q", b.Collection), nil
	}
	cl, ok := coll.Classifier(b.Classifier)
	if !ok {
		return protocol.Errorf(s.name, "not-found", "classifier %q in %q", b.Classifier, b.Collection), nil
	}
	res := protocol.BrowseResult{Collection: b.Collection, Classifier: b.Classifier}
	for _, bucket := range cl.Buckets {
		res.Buckets = append(res.Buckets, protocol.BrowseBucket{Label: bucket.Label, DocIDs: bucket.DocIDs})
	}
	return protocol.MustEnvelope(s.name, protocol.MsgBrowseResult, &res), nil
}

func (s *Server) handleGetDocument(env *protocol.Envelope) (*protocol.Envelope, error) {
	var g protocol.GetDocument
	if err := protocol.Decode(env, protocol.MsgGetDocument, &g); err != nil {
		return protocol.Errorf(s.name, "decode", "%v", err), nil
	}
	coll, err := s.store.Get(g.Collection)
	if err != nil {
		return protocol.Errorf(s.name, "not-found", "collection %q", g.Collection), nil
	}
	d, ok := coll.Doc(g.DocID)
	if !ok {
		return protocol.MustEnvelope(s.name, protocol.MsgDocumentResult, &protocol.DocumentResult{Found: false}), nil
	}
	return protocol.MustEnvelope(s.name, protocol.MsgDocumentResult, &protocol.DocumentResult{
		Found:    true,
		Document: docToPayload(d),
	}), nil
}

func docToPayload(d *collection.Document) *protocol.DocumentPayload {
	p := &protocol.DocumentPayload{ID: d.ID, MIME: d.MIME, Content: d.Content}
	fields := make([]string, 0, len(d.Metadata))
	for f := range d.Metadata {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	for _, f := range fields {
		p.Metadata = append(p.Metadata, protocol.MetaField{Name: f, Values: d.Metadata[f]})
	}
	return p
}

// handleCollectData returns the full (possibly distributed) data of a
// collection, following local and remote sub-collection references with a
// cycle guard — the paper §3 walk where Hamilton collects d and asks London
// for e.
func (s *Server) handleCollectData(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
	var cd protocol.CollectData
	if err := protocol.Decode(env, protocol.MsgCollectData, &cd); err != nil {
		return protocol.Errorf(s.name, "decode", "%v", err), nil
	}
	docs, truncated, err := s.collectData(ctx, cd.Collection, cd.Visited)
	if err != nil {
		return protocol.Errorf(s.name, "collect", "%v", err), nil
	}
	return protocol.MustEnvelope(s.name, protocol.MsgCollectDataResult, &protocol.CollectDataResult{
		Documents: docs,
		Truncated: truncated,
	}), nil
}

func (s *Server) collectData(ctx context.Context, name string, visited []string) ([]protocol.DocumentPayload, bool, error) {
	coll, err := s.store.Get(name)
	if err != nil {
		return nil, false, err
	}
	qualified := s.name + "." + name
	for _, v := range visited {
		if v == qualified {
			return nil, false, nil
		}
	}
	visited = append(append([]string(nil), visited...), qualified)

	var docs []protocol.DocumentPayload
	for _, d := range coll.Docs() {
		docs = append(docs, *docToPayload(d))
	}
	truncated := false
	for _, ref := range coll.Config().Subs {
		if ref.Host == "" || ref.Host == s.name {
			sub, subTrunc, err := s.collectData(ctx, ref.Name, visited)
			if err != nil {
				truncated = true
				continue
			}
			docs = append(docs, sub...)
			truncated = truncated || subTrunc
			continue
		}
		remote, subTrunc, err := s.callRemoteCollect(ctx, ref.Host, ref.Name, visited)
		if err != nil {
			truncated = true
			continue
		}
		docs = append(docs, remote...)
		truncated = truncated || subTrunc
	}
	return docs, truncated, nil
}

func (s *Server) callRemoteCollect(ctx context.Context, host, name string, visited []string) ([]protocol.DocumentPayload, bool, error) {
	if s.resolver == nil {
		return nil, false, fmt.Errorf("greenstone: %s has no resolver", s.name)
	}
	addr, err := s.resolver.Resolve(ctx, host)
	if err != nil {
		return nil, false, err
	}
	env, err := protocol.NewEnvelope(s.name, protocol.MsgCollectData, &protocol.CollectData{
		Collection: name,
		Visited:    visited,
	})
	if err != nil {
		return nil, false, err
	}
	var res protocol.CollectDataResult
	if err := transport.SendExpect(ctx, s.tr, addr, env, protocol.MsgCollectDataResult, &res); err != nil {
		return nil, false, err
	}
	return res.Documents, res.Truncated, nil
}

func (s *Server) handleSubscribe(env *protocol.Envelope) (*protocol.Envelope, error) {
	if s.alert == nil {
		return protocol.Errorf(s.name, "no-alerting", "server %s has alerting disabled", s.name), nil
	}
	var sub protocol.Subscribe
	if err := protocol.Decode(env, protocol.MsgSubscribe, &sub); err != nil {
		return protocol.Errorf(s.name, "decode", "%v", err), nil
	}
	p, err := profile.UnmarshalXMLBytes(sub.Profile.Bytes())
	if err != nil {
		return protocol.Errorf(s.name, "profile", "%v", err), nil
	}
	if p.Owner != sub.Client {
		return protocol.Errorf(s.name, "ownership", "profile owner %q does not match client %q", p.Owner, sub.Client), nil
	}
	if err := s.alert.SubscribeProfile(p); err != nil {
		return protocol.Errorf(s.name, "subscribe", "%v", err), nil
	}
	return protocol.Ack(s.name, env), nil
}

// handleAttachNotifier starts push delivery of a client's notifications to
// the given address. Registering the remote sink drains anything parked in
// the client's mailbox while it was disconnected (paper §7 reconnect).
func (s *Server) handleAttachNotifier(env *protocol.Envelope) (*protocol.Envelope, error) {
	if s.alert == nil {
		return protocol.Errorf(s.name, "no-alerting", "server %s has alerting disabled", s.name), nil
	}
	var at protocol.AttachNotifier
	if err := protocol.Decode(env, protocol.MsgAttachNotifier, &at); err != nil {
		return protocol.Errorf(s.name, "decode", "%v", err), nil
	}
	if at.Client == "" || at.Addr == "" {
		return protocol.Errorf(s.name, "attach-notifier", "client and addr required"), nil
	}
	s.alert.RegisterNotifier(at.Client, core.NewRemoteNotifier(s.name, at.Addr, s.tr))
	return protocol.Ack(s.name, env), nil
}

// handleDetachNotifier stops push delivery; the client's notifications park
// server-side until it re-attaches.
func (s *Server) handleDetachNotifier(env *protocol.Envelope) (*protocol.Envelope, error) {
	if s.alert == nil {
		return protocol.Errorf(s.name, "no-alerting", "server %s has alerting disabled", s.name), nil
	}
	var dt protocol.DetachNotifier
	if err := protocol.Decode(env, protocol.MsgDetachNotifier, &dt); err != nil {
		return protocol.Errorf(s.name, "decode", "%v", err), nil
	}
	s.alert.UnregisterNotifier(dt.Client)
	return protocol.Ack(s.name, env), nil
}

func (s *Server) handleUnsubscribe(env *protocol.Envelope) (*protocol.Envelope, error) {
	if s.alert == nil {
		return protocol.Errorf(s.name, "no-alerting", "server %s has alerting disabled", s.name), nil
	}
	var un protocol.Unsubscribe
	if err := protocol.Decode(env, protocol.MsgUnsubscribe, &un); err != nil {
		return protocol.Errorf(s.name, "decode", "%v", err), nil
	}
	if err := s.alert.Unsubscribe(un.Client, un.ProfileID); err != nil {
		return protocol.Errorf(s.name, "unsubscribe", "%v", err), nil
	}
	return protocol.Ack(s.name, env), nil
}
