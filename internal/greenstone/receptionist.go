package greenstone

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/transport"
)

// Receptionist is the user-facing access point of paper §3: it can connect
// to several Greenstone hosts and presents their collections through one
// interface, with the underlying storage and distribution transparent to
// the user. The alerting extension lets users define profiles at any
// connected server through the same interface (paper §1 problem 3).
type Receptionist struct {
	name string
	tr   transport.Transport

	mu    sync.Mutex
	hosts map[string]string // host name -> addr
}

// NewReceptionist builds a receptionist with no hosts attached.
func NewReceptionist(name string, tr transport.Transport) *Receptionist {
	return &Receptionist{name: name, tr: tr, hosts: make(map[string]string)}
}

// ErrUnknownHost reports an operation against a host the receptionist is
// not connected to.
var ErrUnknownHost = errors.New("greenstone: receptionist not connected to host")

// Connect attaches a host.
func (r *Receptionist) Connect(host, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hosts[host] = addr
}

// RefreshHost re-resolves a connected host's address through the directory
// and re-points the connection at it — the client side of standby failover:
// after a promoted standby re-registers the inherited server name, a
// receptionist whose requests started failing refreshes the host and
// reaches the new primary under the same name. It returns the refreshed
// address.
func (r *Receptionist) RefreshHost(ctx context.Context, host string, resolver core.Resolver) (string, error) {
	if resolver == nil {
		return "", errors.New("greenstone: refresh needs a resolver")
	}
	addr, err := resolver.Resolve(ctx, host)
	if err != nil {
		return "", fmt.Errorf("greenstone: refresh %s: %w", host, err)
	}
	r.Connect(host, addr)
	return addr, nil
}

func (r *Receptionist) addrOf(host string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	addr, ok := r.hosts[host]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownHost, host)
	}
	return addr, nil
}

// Describe lists the public collections of every connected host (the
// unified view of federated collections).
func (r *Receptionist) Describe(ctx context.Context) ([]protocol.DescribeResult, error) {
	r.mu.Lock()
	hosts := make(map[string]string, len(r.hosts))
	for h, a := range r.hosts {
		hosts[h] = a
	}
	r.mu.Unlock()

	names := make([]string, 0, len(hosts))
	for h := range hosts {
		names = append(names, h)
	}
	sort.Strings(names)

	var out []protocol.DescribeResult
	for _, h := range names {
		env, err := protocol.NewEnvelope(r.name, protocol.MsgDescribe, &protocol.Describe{})
		if err != nil {
			return nil, err
		}
		var res protocol.DescribeResult
		if err := transport.SendExpect(ctx, r.tr, hosts[h], env, protocol.MsgDescribeResult, &res); err != nil {
			return nil, fmt.Errorf("greenstone: describe %s: %w", h, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Search queries one collection on one host; followSubs expands distributed
// sub-collections transparently.
func (r *Receptionist) Search(ctx context.Context, host, coll, query, field string, limit int, followSubs bool) (*protocol.SearchResult, error) {
	addr, err := r.addrOf(host)
	if err != nil {
		return nil, err
	}
	env, err := protocol.NewEnvelope(r.name, protocol.MsgSearch, &protocol.Search{
		Collection: coll,
		Query:      query,
		Field:      field,
		Limit:      limit,
		FollowSubs: followSubs,
	})
	if err != nil {
		return nil, err
	}
	var res protocol.SearchResult
	if err := transport.SendExpect(ctx, r.tr, addr, env, protocol.MsgSearchResult, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Browse fetches a classifier shelf.
func (r *Receptionist) Browse(ctx context.Context, host, coll, classifier string) (*protocol.BrowseResult, error) {
	addr, err := r.addrOf(host)
	if err != nil {
		return nil, err
	}
	env, err := protocol.NewEnvelope(r.name, protocol.MsgBrowse, &protocol.Browse{Collection: coll, Classifier: classifier})
	if err != nil {
		return nil, err
	}
	var res protocol.BrowseResult
	if err := transport.SendExpect(ctx, r.tr, addr, env, protocol.MsgBrowseResult, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// GetDocument fetches one document.
func (r *Receptionist) GetDocument(ctx context.Context, host, coll, docID string) (*protocol.DocumentPayload, error) {
	addr, err := r.addrOf(host)
	if err != nil {
		return nil, err
	}
	env, err := protocol.NewEnvelope(r.name, protocol.MsgGetDocument, &protocol.GetDocument{Collection: coll, DocID: docID})
	if err != nil {
		return nil, err
	}
	var res protocol.DocumentResult
	if err := transport.SendExpect(ctx, r.tr, addr, env, protocol.MsgDocumentResult, &res); err != nil {
		return nil, err
	}
	if !res.Found {
		return nil, fmt.Errorf("greenstone: document %s/%s/%s not found", host, coll, docID)
	}
	return res.Document, nil
}

// CollectData retrieves the complete (distributed) data of a collection.
func (r *Receptionist) CollectData(ctx context.Context, host, coll string) (*protocol.CollectDataResult, error) {
	addr, err := r.addrOf(host)
	if err != nil {
		return nil, err
	}
	env, err := protocol.NewEnvelope(r.name, protocol.MsgCollectData, &protocol.CollectData{Collection: coll})
	if err != nil {
		return nil, err
	}
	var res protocol.CollectDataResult
	if err := transport.SendExpect(ctx, r.tr, addr, env, protocol.MsgCollectDataResult, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Subscribe registers a user profile at a host on behalf of a client. The
// profile resides at that server only (paper §4.2).
func (r *Receptionist) Subscribe(ctx context.Context, host string, p *profile.Profile) error {
	addr, err := r.addrOf(host)
	if err != nil {
		return err
	}
	raw, err := p.MarshalXMLBytes()
	if err != nil {
		return err
	}
	env, err := protocol.NewEnvelope(r.name, protocol.MsgSubscribe, &protocol.Subscribe{
		Client:  p.Owner,
		Profile: protocol.Wrap(raw),
	})
	if err != nil {
		return err
	}
	return transport.SendOneWay(ctx, r.tr, addr, env)
}

// SubscribeWithClass registers a profile tagged with a QoS priority class
// (docs/QOS.md): realtime is never shed under overload, normal may be
// deferred, bulk degrades to coalesced digests. Subscribe without a class
// registers normal.
func (r *Receptionist) SubscribeWithClass(ctx context.Context, host string, p *profile.Profile, class qos.Class) error {
	p.Class = class
	return r.Subscribe(ctx, host, p)
}

// Unsubscribe cancels a user profile at a host.
func (r *Receptionist) Unsubscribe(ctx context.Context, host, client, profileID string) error {
	addr, err := r.addrOf(host)
	if err != nil {
		return err
	}
	env, err := protocol.NewEnvelope(r.name, protocol.MsgUnsubscribe, &protocol.Unsubscribe{
		Client:    client,
		ProfileID: profileID,
	})
	if err != nil {
		return err
	}
	return transport.SendOneWay(ctx, r.tr, addr, env)
}

// AttachNotifications asks a host to push a client's notifications to addr
// (typically one bound with ListenForNotifications). Attaching drains the
// client's server-side mailbox: alerts parked while the client was offline
// arrive immediately (paper §7 reconnect semantics for notifications).
func (r *Receptionist) AttachNotifications(ctx context.Context, host, client, addr string) error {
	hostAddr, err := r.addrOf(host)
	if err != nil {
		return err
	}
	env, err := protocol.NewEnvelope(r.name, protocol.MsgAttachNotifier, &protocol.AttachNotifier{
		Client: client,
		Addr:   addr,
	})
	if err != nil {
		return err
	}
	return transport.SendOneWay(ctx, r.tr, hostAddr, env)
}

// DetachNotifications stops push delivery for a client; its notifications
// park at the host until the next AttachNotifications.
func (r *Receptionist) DetachNotifications(ctx context.Context, host, client string) error {
	hostAddr, err := r.addrOf(host)
	if err != nil {
		return err
	}
	env, err := protocol.NewEnvelope(r.name, protocol.MsgDetachNotifier, &protocol.DetachNotifier{Client: client})
	if err != nil {
		return err
	}
	return transport.SendOneWay(ctx, r.tr, hostAddr, env)
}

// ListenForNotifications binds a local address for MsgNotify and
// MsgNotifyBatch deliveries and returns a channel of notifications. Pair it
// with AttachNotifications (or core.NewRemoteNotifier on the server side).
// The returned closer stops listening.
func (r *Receptionist) ListenForNotifications(addr string) (<-chan core.Notification, func() error, error) {
	ch := make(chan core.Notification, 64)
	deliver := func(n protocol.Notify) error {
		ev, err := eventFromRaw(n.Event.Bytes())
		if err != nil {
			return err
		}
		class, _ := qos.ParseClass(n.Class) // unknown class degrades to normal
		out := core.Notification{Client: n.Client, ProfileID: n.ProfileID, Event: ev, Composite: n.Composite, Class: class}
		for _, raw := range n.Contributing {
			cev, err := eventFromRaw(raw.Bytes())
			if err != nil {
				return err
			}
			out.Contributing = append(out.Contributing, cev)
		}
		select {
		case ch <- out:
		default: // drop on overflow rather than blocking the server
		}
		return nil
	}
	l, err := r.tr.Listen(addr, transport.HandlerFunc(func(_ context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
		switch env.Header.Type {
		case protocol.MsgNotifyComposite:
			var cn protocol.CompositeNotify
			if err := protocol.Decode(env, protocol.MsgNotifyComposite, &cn); err != nil {
				return protocol.Errorf(r.name, "decode", "%v", err), nil
			}
			ev, err := eventFromRaw(cn.Event.Bytes())
			if err != nil {
				return protocol.Errorf(r.name, "event", "%v", err), nil
			}
			class, _ := qos.ParseClass(cn.Class) // unknown class degrades to normal
			n := core.Notification{
				Client:    cn.Client,
				ProfileID: cn.ProfileID,
				Event:     ev,
				DocIDs:    cn.DocIDs,
				Composite: cn.Kind,
				Class:     class,
			}
			for _, raw := range cn.Contributing {
				cev, err := eventFromRaw(raw.Bytes())
				if err != nil {
					return protocol.Errorf(r.name, "event", "%v", err), nil
				}
				n.Contributing = append(n.Contributing, cev)
			}
			select {
			case ch <- n:
			default: // drop on overflow rather than blocking the server
			}
			return nil, nil
		case protocol.MsgNotifyBatch:
			var b protocol.NotifyBatch
			if err := protocol.Decode(env, protocol.MsgNotifyBatch, &b); err != nil {
				return protocol.Errorf(r.name, "decode", "%v", err), nil
			}
			for _, n := range b.Items {
				if err := deliver(n); err != nil {
					return protocol.Errorf(r.name, "event", "%v", err), nil
				}
			}
			return nil, nil
		default:
			var n protocol.Notify
			if err := protocol.Decode(env, protocol.MsgNotify, &n); err != nil {
				return protocol.Errorf(r.name, "decode", "%v", err), nil
			}
			if err := deliver(n); err != nil {
				return protocol.Errorf(r.name, "event", "%v", err), nil
			}
			return nil, nil
		}
	}))
	if err != nil {
		return nil, nil, err
	}
	return ch, l.Close, nil
}
