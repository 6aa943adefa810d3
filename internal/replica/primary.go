package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/metrics"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/transport"
)

// streamTimeout bounds one stream or snapshot send. It is held with the
// stream lock, so it also bounds how long a wedged standby can stall the
// serving primary's hooked paths.
const streamTimeout = 5 * time.Second

// PrimaryConfig assembles a Primary.
type PrimaryConfig struct {
	// Service is the serving alerting service whose state is replicated.
	Service *core.Service
	// Transport carries the stream and receives join requests.
	Transport transport.Transport
	// ListenAddr is the primary's replication endpoint: standbys send their
	// join handshake (MsgReplAck with Resync) here.
	ListenAddr string
}

// Primary is the sending end of the replication stream. It installs itself
// as the service's ReplicationSink and the delivery pipeline's mailbox
// observer. Every hook queues its record and returns only once the standby
// has acknowledged the envelope carrying it (group commit): whichever hook
// holds the stream lock ships everything queued behind it, consecutive WAL
// records merged into one repl.wal, so the standby applies records in
// queue order.
//
// One standby is supported at a time; a second join replaces the first.
// A failed stream send marks the stream broken and drops subsequent records
// until the standby rejoins (which resyncs it with a fresh snapshot), so a
// dead standby costs one failed send, not one timeout per record.
type Primary struct {
	svc      *core.Service
	tr       transport.Transport
	addr     string
	listener io.Closer

	// qmu guards the commit queue. Hooks append to it and take a ticket
	// under qmu, which is never held across a send; taken is the last
	// ticket a stream-lock holder took off the queue to ship.
	qmu     sync.Mutex
	queue   []record
	tickets uint64
	taken   uint64

	// mu is the stream lock: it serialises sequence assignment and sends,
	// so the stream IS the serialisation of concurrent state changes. The
	// positions and counters are written under it but read (ReplicaStats)
	// without it. spare and merged are the shipper's reusable buffers.
	mu          sync.Mutex
	standbyAddr string
	broken      bool
	spare       []record
	merged      []protocol.ReplWALItem
	seq         atomic.Uint64
	confirmed   atomic.Uint64
	streamed    metrics.Counter
	dropped     metrics.Counter
	errors      metrics.Counter
	snapshots   metrics.Counter
	resyncs     metrics.Counter
}

// record is one replicable state change waiting in the commit queue: a
// profile op, which travels alone as a repl.subscribe, or WAL items, which
// share one repl.wal with the WAL records queued next to them.
type record struct {
	op    *protocol.ReplProfileOp
	items []protocol.ReplWALItem
}

// NewPrimary builds a Primary, wires it into the service and pipeline, and
// starts listening for standby joins. Close it before closing the service.
func NewPrimary(cfg PrimaryConfig) (*Primary, error) {
	if cfg.Service == nil || cfg.Transport == nil {
		return nil, errors.New("replica: primary needs a service and a transport")
	}
	if cfg.ListenAddr == "" {
		return nil, errors.New("replica: primary needs a listen address")
	}
	p := &Primary{svc: cfg.Service, tr: cfg.Transport, addr: cfg.ListenAddr}
	l, err := cfg.Transport.Listen(cfg.ListenAddr, transport.HandlerFunc(p.handle))
	if err != nil {
		return nil, fmt.Errorf("replica: primary listen: %w", err)
	}
	p.listener = l
	cfg.Service.SetReplicationSink(p)
	cfg.Service.SetReplicaStatsProvider(p)
	cfg.Service.Delivery().SetObserver(p.onMailboxOps)
	return p, nil
}

// Close detaches the hooks and stops listening for joins.
func (p *Primary) Close() error {
	p.svc.SetReplicationSink(nil)
	p.svc.SetReplicaStatsProvider(nil)
	p.svc.Delivery().SetObserver(nil)
	if p.listener != nil {
		return p.listener.Close()
	}
	return nil
}

// ReplicaStats implements core.ReplicaStatsProvider. It does not take p.mu:
// a shipping hook holds that across a send of up to streamTimeout, and
// /metrics, /stats and the health rules must keep answering when a standby
// wedges.
func (p *Primary) ReplicaStats() core.ReplicaStats {
	// confirmed first: it only ever trails seq, so a racing send can make
	// the window read one envelope wide, never negative.
	confirmed, seq := p.confirmed.Load(), p.seq.Load()
	st := core.ReplicaStats{
		Role: "primary", StreamSeq: seq,
		Streamed: p.streamed.Value(), Dropped: p.dropped.Value(), Errors: p.errors.Value(),
		Snapshots: p.snapshots.Value(), Resyncs: p.resyncs.Value(),
	}
	// Lag is the un-acknowledged stream window. Before any standby attaches
	// the stream has no position to lag behind (seq stays 0), so this reads
	// 0 on a solo primary.
	if seq > confirmed {
		st.StreamLag = seq - confirmed
	}
	return st
}

// handle processes the primary side of the replication protocol: a standby
// join/resync request (Resync set), answered with a full snapshot, or a
// liveness probe (Resync clear), answered with the primary's stream
// position so the standby can detect divergence and rejoin.
func (p *Primary) handle(_ context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
	switch env.Header.Type {
	case protocol.MsgReplAck:
		var ack protocol.ReplAck
		if err := protocol.Decode(env, protocol.MsgReplAck, &ack); err != nil {
			return protocol.Errorf(p.svc.Name(), "decode", "%v", err), nil
		}
		if ack.ServerName != "" && ack.ServerName != p.svc.Name() {
			return protocol.Errorf(p.svc.Name(), "mismatch", "%v", mismatchErr(p.svc.Name(), ack.ServerName)), nil
		}
		if ack.Addr == "" {
			return protocol.Errorf(p.svc.Name(), "join", "request carries no standby address"), nil
		}
		if !ack.Resync {
			// Heartbeat probe: report the stream position, and ask for a
			// rejoin when the stream is broken or this primary has never
			// seen this standby (e.g. a primary restart). Position
			// divergence is judged by the standby against the returned
			// sequence — here the probe's sampled position races benignly
			// with in-flight records. The probe never repairs state itself;
			// only a join's snapshot can.
			p.mu.Lock()
			needResync := p.broken || p.standbyAddr != ack.Addr
			seq := p.seq.Load()
			p.mu.Unlock()
			return protocol.MustEnvelope(p.svc.Name(), protocol.MsgReplAck, &protocol.ReplAck{
				AppliedSeq: seq,
				Resync:     needResync,
				QoSBuckets: exportQoSBuckets(p.svc),
			}), nil
		}
		p.mu.Lock()
		p.standbyAddr = ack.Addr
		p.broken = false
		snap, err := p.snapshotLocked()
		p.mu.Unlock()
		if err != nil {
			return protocol.Errorf(p.svc.Name(), "snapshot", "%v", err), nil
		}
		return protocol.MustEnvelope(p.svc.Name(), protocol.MsgReplSnapshot, snap), nil
	default:
		return protocol.Errorf(p.svc.Name(), "unsupported", "primary cannot handle %s", env.Header.Type), nil
	}
}

// snapshotLocked assembles the full replicable state, stamped with the
// current stream position. Callers hold p.mu, so no stream record can
// interleave with the snapshot; a hook whose mutation landed before the
// snapshot but whose record ships after it is applied twice, which every
// apply path tolerates (profile re-add replaces, mailbox re-append and
// dedup re-observe are no-ops).
func (p *Primary) snapshotLocked() (*protocol.ReplSnapshot, error) {
	var subs bytes.Buffer
	if err := p.svc.SaveSubscriptions(&subs); err != nil {
		return nil, err
	}
	snap := &protocol.ReplSnapshot{
		Seq:           p.seq.Load(),
		Server:        p.svc.Name(),
		Mode:          p.svc.RoutingMode().String(),
		IDSeq:         p.svc.IDSeq(),
		Subscriptions: protocol.Wrap(subs.Bytes()),
		DedupIDs:      p.svc.DedupIDs(),
		QoSBuckets:    exportQoSBuckets(p.svc),
	}
	for _, mb := range p.svc.Delivery().ExportMailboxes() {
		rm := protocol.ReplMailbox{Client: mb.Client, NextSeq: mb.NextSeq}
		for _, e := range mb.Entries {
			raw, err := delivery.MarshalNotification(e.N)
			if err != nil {
				return nil, err
			}
			rm.Entries = append(rm.Entries, protocol.ReplMailboxEntry{Seq: e.Seq, Notification: protocol.Wrap(raw)})
		}
		snap.Mailboxes = append(snap.Mailboxes, rm)
	}
	p.snapshots.Inc()
	return snap, nil
}

func (p *Primary) sendSnapshotLocked(ctx context.Context) error {
	if p.standbyAddr == "" {
		return errors.New("replica: no standby attached")
	}
	snap, err := p.snapshotLocked()
	if err != nil {
		return err
	}
	env, err := protocol.NewEnvelope(p.svc.Name(), protocol.MsgReplSnapshot, snap)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, streamTimeout)
	defer cancel()
	var ack protocol.ReplAck
	if err := transport.SendExpect(ctx, p.tr, p.standbyAddr, env, protocol.MsgReplAck, &ack); err != nil {
		p.broken = true
		p.errors.Inc()
		return err
	}
	// A successfully applied snapshot makes the standby consistent with the
	// current stream position: a previously broken stream may resume.
	p.broken = false
	p.confirmed.Store(ack.AppliedSeq)
	return nil
}

// noteError counts a replication failure that could not take the stream
// path (e.g. a payload that failed to marshal). The stream is marked
// broken so the divergence is repaired by the next join/heartbeat resync
// instead of persisting silently.
func (p *Primary) noteError() {
	p.errors.Inc()
	p.mu.Lock()
	p.broken = true
	p.mu.Unlock()
}

// stream commits one record and returns once the standby has applied the
// envelope carrying it, or once the record was dropped on a broken stream.
// The record joins the commit queue first; then, under the stream lock, the
// hook either finds its record already shipped by an earlier lock holder
// or ships the whole queue itself. The queue order is the stream order, so
// an append still precedes its ack and a dedup the notifications it
// admitted.
func (p *Primary) stream(r record) {
	p.qmu.Lock()
	p.queue = append(p.queue, r)
	p.tickets++
	ticket := p.tickets
	p.qmu.Unlock()

	p.mu.Lock()
	defer p.mu.Unlock()
	p.qmu.Lock()
	if p.taken >= ticket {
		p.qmu.Unlock()
		return
	}
	batch := p.queue
	p.queue, p.spare = p.spare, nil
	p.taken = p.tickets
	p.qmu.Unlock()
	p.ship(batch)
	clear(batch)
	p.spare = batch[:0]
}

// ship sends a taken batch in queue order: each profile op as its own
// repl.subscribe, each run of consecutive WAL records as one repl.wal. A
// broken stream drops (and counts) what is left.
func (p *Primary) ship(batch []record) {
	for len(batch) > 0 {
		if p.standbyAddr == "" || p.broken {
			p.dropped.Add(int64(len(batch)))
			return
		}
		seq := p.seq.Add(1)
		if op := batch[0].op; op != nil {
			op.Seq = seq
			p.send(protocol.MsgReplSubscribe, op, 1)
			batch = batch[1:]
			continue
		}
		run := 1
		for run < len(batch) && batch[run].op == nil {
			run++
		}
		items := batch[0].items
		if run > 1 {
			for _, r := range batch[:run] {
				p.merged = append(p.merged, r.items...)
			}
			items = p.merged
		}
		p.send(protocol.MsgReplWAL, &protocol.ReplWAL{Seq: seq, Items: items}, run)
		clear(p.merged)
		p.merged = p.merged[:0]
		batch = batch[run:]
	}
}

// send ships one envelope carrying the given number of records and waits
// for the standby's ack.
func (p *Primary) send(typ protocol.MessageType, payload any, records int) {
	env, err := protocol.NewEnvelope(p.svc.Name(), typ, payload)
	if err != nil {
		p.errors.Inc()
		p.broken = true
		return
	}
	// The send runs under p.mu — the stream lock IS the serialisation — so
	// it must be bounded: an unresponsive standby would otherwise stall
	// every publish and subscribe behind this mutex for the transport's
	// full timeout.
	ctx, cancel := context.WithTimeout(context.Background(), streamTimeout)
	defer cancel()
	var ack protocol.ReplAck
	if err := transport.SendExpect(ctx, p.tr, p.standbyAddr, env, protocol.MsgReplAck, &ack); err != nil {
		// Stream broken: drop records until the standby rejoins (the join
		// snapshot resyncs it; re-sending individual records cannot).
		p.broken = true
		p.errors.Inc()
		return
	}
	p.streamed.Add(int64(records))
	p.confirmed.Store(ack.AppliedSeq)
	if ack.Resync {
		// The standby detected a gap or failed an apply: catch it up with a
		// fresh snapshot before the next record.
		p.resyncs.Inc()
		if err := p.sendSnapshotLocked(context.Background()); err != nil {
			p.broken = true
		}
	}
}

// ReplicateProfileAdd implements core.ReplicationSink.
func (p *Primary) ReplicateProfileAdd(prof *profile.Profile) {
	raw, err := prof.MarshalXMLBytes()
	if err != nil {
		p.noteError()
		return
	}
	p.stream(record{op: &protocol.ReplProfileOp{
		Op:      opSubscribe,
		Client:  prof.Owner, // "" for auxiliary profiles
		IDSeq:   p.svc.IDSeq(),
		Profile: protocol.Wrap(raw),
	}})
}

// ReplicateProfileRemove implements core.ReplicationSink.
func (p *Primary) ReplicateProfileRemove(client, profileID string) {
	p.stream(record{op: &protocol.ReplProfileOp{
		Op:        opUnsubscribe,
		Client:    client,
		ProfileID: profileID,
	}})
}

// ReplicateDedup implements core.ReplicationSink.
func (p *Primary) ReplicateDedup(id string) {
	p.stream(record{items: []protocol.ReplWALItem{{Kind: kindDedup, DedupID: id}}})
}

// onMailboxOps is the delivery pipeline's observer: one record per
// operation batch (a chunk of appends with their evictions, or a flush
// pass's acks).
func (p *Primary) onMailboxOps(ops []delivery.MailboxOp) {
	items := make([]protocol.ReplWALItem, 0, len(ops))
	for _, op := range ops {
		it := protocol.ReplWALItem{Client: op.Client, MailboxSeq: op.Seq}
		if op.Ack {
			it.Kind = kindAck
		} else {
			raw, err := delivery.MarshalNotification(op.N)
			if err != nil {
				p.noteError()
				continue
			}
			it.Kind = kindAppend
			it.Notification = protocol.Wrap(raw)
		}
		items = append(items, it)
	}
	if len(items) == 0 {
		return
	}
	p.stream(record{items: items})
}
