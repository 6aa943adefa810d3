package gds

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/transport"
)

// ErrNameNotFound reports a failed resolution.
var ErrNameNotFound = errors.New("gds: name not found")

// Client is a Greenstone server's handle on its GDS node (paper §4.1: "each
// server is registered at exactly one service installation"). It offers
// registration, the naming service (with a small TTL cache), broadcast and
// multicast.
type Client struct {
	serverName string
	serverAddr string
	nodeAddr   string
	tr         transport.Transport

	mu    sync.Mutex
	cache map[string]cacheEntry
	ttl   time.Duration
	now   func() time.Time
}

type cacheEntry struct {
	addr    string
	expires time.Time
}

// DefaultResolveTTL bounds staleness of cached name resolutions.
const DefaultResolveTTL = 30 * time.Second

// NewClient builds a client for the server (name, addr) attached to the GDS
// node at nodeAddr.
func NewClient(serverName, serverAddr, nodeAddr string, tr transport.Transport) *Client {
	return &Client{
		serverName: serverName,
		serverAddr: serverAddr,
		nodeAddr:   nodeAddr,
		tr:         tr,
		cache:      make(map[string]cacheEntry),
		ttl:        DefaultResolveTTL,
		now:        time.Now,
	}
}

// Register announces the server to its GDS node.
func (c *Client) Register(ctx context.Context) error {
	err := c.send(ctx, protocol.MsgRegisterServer, &protocol.RegisterServer{Name: c.serverName, Addr: c.serverAddr})
	if err != nil {
		return fmt.Errorf("gds: register %s: %w", c.serverName, err)
	}
	return nil
}

// send hands one payload to the node in an envelope of its own.
func (c *Client) send(ctx context.Context, typ protocol.MessageType, payload any) error {
	env, err := protocol.NewEnvelope(c.serverName, typ, payload)
	if err != nil {
		return err
	}
	return transport.SendOneWay(ctx, c.tr, c.nodeAddr, env)
}

// Unregister withdraws the server's registration.
func (c *Client) Unregister(ctx context.Context) error {
	return c.send(ctx, protocol.MsgUnregisterServer, &protocol.UnregisterServer{Name: c.serverName})
}

// Resolve maps a server name to its transport address via the directory,
// consulting the local cache first (paper §4.1: servers are addressed "by
// their network-internal name without ... the actual address or location").
func (c *Client) Resolve(ctx context.Context, name string) (string, error) {
	c.mu.Lock()
	if e, ok := c.cache[name]; ok && c.now().Before(e.expires) {
		c.mu.Unlock()
		return e.addr, nil
	}
	c.mu.Unlock()

	env, err := protocol.NewEnvelope(c.serverName, protocol.MsgResolve, &protocol.Resolve{Name: name})
	if err != nil {
		return "", err
	}
	var rr protocol.ResolveResult
	if err := transport.SendExpect(ctx, c.tr, c.nodeAddr, env, protocol.MsgResolveResult, &rr); err != nil {
		return "", fmt.Errorf("gds: resolve %q: %w", name, err)
	}
	if !rr.Found {
		return "", fmt.Errorf("%w: %q", ErrNameNotFound, name)
	}
	c.mu.Lock()
	c.cache[name] = cacheEntry{addr: rr.Addr, expires: c.now().Add(c.ttl)}
	c.mu.Unlock()
	return rr.Addr, nil
}

// InvalidateCache drops a cached resolution (after a send to the cached
// address failed).
func (c *Client) InvalidateCache(name string) {
	c.mu.Lock()
	delete(c.cache, name)
	c.mu.Unlock()
}

// disseminate hands inner to the node wrapped for one routing mode: wrapper
// is the mode's payload and slot its Inner field, which receives the
// marshalled envelope.
func (c *Client) disseminate(ctx context.Context, typ protocol.MessageType, inner *protocol.Envelope, wrapper any, slot *[]byte) error {
	raw, err := protocol.Marshal(inner)
	if err != nil {
		return err
	}
	*slot = raw
	env, err := protocol.NewEnvelope(c.serverName, typ, wrapper)
	if err != nil {
		return err
	}
	// Mirror the inner envelope's trace context on the outer header so
	// directory nodes can record per-hop spans without unwrapping Inner.
	env.Header.Trace = inner.Header.Trace
	return transport.SendOneWay(ctx, c.tr, c.nodeAddr, env)
}

// Broadcast floods inner to every Greenstone server registered in the GDS
// tree. Delivery is best effort.
func (c *Client) Broadcast(ctx context.Context, inner *protocol.Envelope) error {
	var bc protocol.Broadcast
	if err := c.disseminate(ctx, protocol.MsgBroadcast, inner, &bc, &bc.Inner); err != nil {
		return fmt.Errorf("gds: broadcast from %s: %w", c.serverName, err)
	}
	return nil
}

// JoinGroup subscribes the server to a multicast group.
func (c *Client) JoinGroup(ctx context.Context, group string) error {
	return c.send(ctx, protocol.MsgJoinGroup, &protocol.JoinGroup{Group: group, Name: c.serverName, Addr: c.serverAddr})
}

// LeaveGroup removes the server from a multicast group.
func (c *Client) LeaveGroup(ctx context.Context, group string) error {
	return c.send(ctx, protocol.MsgLeaveGroup, &protocol.LeaveGroup{Group: group, Name: c.serverName})
}

// Multicast delivers inner to the members of a group.
func (c *Client) Multicast(ctx context.Context, group string, inner *protocol.Envelope) error {
	mc := protocol.Multicast{Group: group}
	return c.disseminate(ctx, protocol.MsgMulticast, inner, &mc, &mc.Inner)
}

// Ping probes the node.
func (c *Client) Ping(ctx context.Context) error {
	return c.send(ctx, protocol.MsgPing, &protocol.Ping{Seq: 1})
}
