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
	"github.com/gsalert/gsalert/internal/gds"
	"github.com/gsalert/gsalert/internal/logging"
	"github.com/gsalert/gsalert/internal/metrics"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/trace"
	"github.com/gsalert/gsalert/internal/transport"
)

// StandbyConfig assembles a Standby.
type StandbyConfig struct {
	// Service is the passive alerting service the stream is applied to. It
	// must carry the primary's server name (the identity inherited on
	// promotion) and its own transport address, stay in broadcast mode and
	// must NOT be registered with the GDS while passive — the primary owns
	// the name until promotion.
	Service *core.Service
	// Transport carries the stream.
	Transport transport.Transport
	// ListenAddr is the standby's replication endpoint (the primary pushes
	// stream records and snapshots here).
	ListenAddr string
	// PrimaryAddr is the primary's replication endpoint, for Join.
	PrimaryAddr string
	// GDS, when set, is registered under the inherited name at promotion
	// (the same client handed to the service's core.Config).
	GDS *gds.Client
	// Tracer, when set, records one StageReplApply span per replicated
	// mailbox append whose notification carries a sampled trace context, so
	// the attribution table can report replication apply cost. Nil (the
	// default) records nothing.
	Tracer *trace.Tracer
	// Log is the standby's component logger (docs/LOGGING.md): joins and
	// promotion at info, probe failures and resyncs at warn. Nil disables
	// every site at one pointer check.
	Log *logging.Logger
}

// Standby is the receiving end of the replication stream: it applies
// replicated profiles, mailbox WAL records and dedup admissions to a
// passive service, and on promotion re-registers the inherited identity
// with the directory and re-issues the routing-mode state.
type Standby struct {
	svc         *core.Service
	tr          transport.Transport
	gdsCli      *gds.Client
	tracer      *trace.Tracer
	log         *logging.Logger
	addr        string
	primaryAddr string
	listener    io.Closer

	// applyMu serialises state application: stream records arrive on the
	// listener goroutine while Join (heartbeat resync) applies snapshots
	// from another — unserialised, a snapshot reset could swallow a
	// concurrently applied record while the position counter says it
	// landed. mu (below) only guards the position and flags.
	applyMu sync.Mutex

	// applied and promoted are written under mu but are atomics, and the
	// counters are lock-free, so ReplicaStats (every scrape) never waits.
	mu        sync.Mutex
	applied   atomic.Uint64
	synced    bool
	promoted  atomic.Bool
	mode      core.RoutingMode
	applies   metrics.Counter
	errors    metrics.Counter
	snapshots metrics.Counter
	resyncs   metrics.Counter
	// probeErr is the outcome of the most recent Join/Heartbeat probe (nil
	// = reached the primary). Readiness checks consume it: a standby whose
	// probes fail may hold stale state even though synced is still set.
	probeErr error
}

// NewStandby builds a Standby and starts listening for the stream. Call
// Join to attach to the primary and receive the initial snapshot.
func NewStandby(cfg StandbyConfig) (*Standby, error) {
	if cfg.Service == nil || cfg.Transport == nil {
		return nil, errors.New("replica: standby needs a service and a transport")
	}
	if cfg.ListenAddr == "" || cfg.PrimaryAddr == "" {
		return nil, errors.New("replica: standby needs listen and primary addresses")
	}
	s := &Standby{
		svc:         cfg.Service,
		tr:          cfg.Transport,
		gdsCli:      cfg.GDS,
		tracer:      cfg.Tracer,
		log:         cfg.Log,
		addr:        cfg.ListenAddr,
		primaryAddr: cfg.PrimaryAddr,
		mode:        core.RouteBroadcast,
	}
	l, err := cfg.Transport.Listen(cfg.ListenAddr, transport.HandlerFunc(s.handle))
	if err != nil {
		return nil, fmt.Errorf("replica: standby listen: %w", err)
	}
	s.listener = l
	cfg.Service.SetReplicaStatsProvider(s)
	return s, nil
}

// Close stops listening for the stream.
func (s *Standby) Close() error {
	s.svc.SetReplicaStatsProvider(nil)
	if s.listener != nil {
		return s.listener.Close()
	}
	return nil
}

// Service exposes the standby's alerting service (serving after Promote).
func (s *Standby) Service() *core.Service { return s.svc }

// Promoted reports whether the standby has taken over.
func (s *Standby) Promoted() bool { return s.promoted.Load() }

// Ready is the /readyz "standby-caught-up" rule: nil once promoted (the
// standby is serving), otherwise it must hold a snapshot-rooted state
// (not so before the first Join, nor between an apply failure and the
// resync snapshot) and its last Join/Heartbeat must have reached the
// primary — a partitioned standby is not ready even though its last-known
// state is consistent.
func (s *Standby) Ready() error {
	if s.Promoted() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.synced {
		return errors.New("standby has not applied a snapshot")
	}
	if s.probeErr != nil {
		return fmt.Errorf("primary unreachable: %w", s.probeErr)
	}
	return nil
}

// noteProbe records a probe outcome.
func (s *Standby) noteProbe(err error) {
	s.mu.Lock()
	s.probeErr = err
	s.mu.Unlock()
}

// ReplicaStats implements core.ReplicaStatsProvider.
func (s *Standby) ReplicaStats() core.ReplicaStats {
	st := core.ReplicaStats{
		Role: "standby", StreamSeq: s.applied.Load(), Promoted: s.promoted.Load(),
		Streamed: s.applies.Value(), Errors: s.errors.Value(),
		Snapshots: s.snapshots.Value(), Resyncs: s.resyncs.Value(),
	}
	if st.Promoted {
		st.Role = "primary"
	}
	return st
}

// Join performs the handshake with the primary: it announces this standby's
// endpoint and applies the returned snapshot, after which the primary
// streams every subsequent change here. Join again at any time to rejoin
// after an outage (anti-entropy catch-up).
func (s *Standby) Join(ctx context.Context) error {
	env, err := protocol.NewEnvelope(s.svc.Name(), protocol.MsgReplAck, &protocol.ReplAck{
		Resync:     true,
		Addr:       s.addr,
		ServerName: s.svc.Name(),
	})
	if err != nil {
		return err
	}
	var snap protocol.ReplSnapshot
	if err := transport.SendExpect(ctx, s.tr, s.primaryAddr, env, protocol.MsgReplSnapshot, &snap); err != nil {
		err = fmt.Errorf("replica: join %s: %w", s.primaryAddr, err)
		s.noteProbe(err)
		s.log.Warn("join failed", logging.String("primary", s.primaryAddr),
			logging.String("error", err.Error()))
		return err
	}
	s.noteProbe(nil)
	if err := s.applySnapshot(&snap); err != nil {
		return err
	}
	// The applied stream position is deliberately not logged: it shifts
	// with delivery flush batching across same-seed runs, and E19 requires
	// byte-identical flight bundles. gsalert_replica_stream_seq carries it.
	s.log.Info("joined primary", logging.String("primary", s.primaryAddr))
	return nil
}

// Heartbeat probes the primary's stream position and rejoins (full
// snapshot resync) when the pair has diverged: the stream broke while this
// standby was unreachable, the primary restarted and forgot the standby,
// or positions simply disagree. Drive it periodically (gs-server probes
// every few seconds) — without it, a broken stream stays broken silently
// until the next explicit Join. A promoted standby stops probing.
func (s *Standby) Heartbeat(ctx context.Context) error {
	if s.promoted.Load() {
		return nil
	}
	applied := s.applied.Load()
	env, err := protocol.NewEnvelope(s.svc.Name(), protocol.MsgReplAck, &protocol.ReplAck{
		AppliedSeq: applied,
		Addr:       s.addr,
		ServerName: s.svc.Name(),
	})
	if err != nil {
		return err
	}
	var resp protocol.ReplAck
	if err := transport.SendExpect(ctx, s.tr, s.primaryAddr, env, protocol.MsgReplAck, &resp); err != nil {
		err = fmt.Errorf("replica: heartbeat %s: %w", s.primaryAddr, err)
		s.noteProbe(err)
		return err
	}
	s.noteProbe(nil)
	// Refresh replicated quota levels: heartbeats piggyback the primary's
	// current token buckets, so a promotion between snapshots still
	// inherits near-current admission state.
	applyQoSBuckets(s.svc, resp.QoSBuckets)
	// Re-read the position: stream records that landed while the probe was
	// in flight are already applied (the stream is synchronous), so being
	// genuinely behind means the primary's position is still ahead of the
	// CURRENT one — comparing against the pre-probe sample would turn every
	// probe under live traffic into a spurious full resync. A primary that
	// restarted (position behind ours) answers Resync via its
	// unknown-standby check.
	if resp.Resync || resp.AppliedSeq > s.applied.Load() {
		s.resyncs.Inc()
		s.log.Warn("stream diverged, resyncing", logging.String("primary", s.primaryAddr))
		return s.Join(ctx)
	}
	return nil
}

// handle processes the standby side of the replication protocol. Every
// stream envelope is answered with a ReplAck carrying the applied position;
// a gap or apply failure answers with Resync set, which makes the primary
// push a fresh snapshot before the next record.
func (s *Standby) handle(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
	switch env.Header.Type {
	case protocol.MsgReplSubscribe:
		var op protocol.ReplProfileOp
		if err := protocol.Decode(env, protocol.MsgReplSubscribe, &op); err != nil {
			return protocol.Errorf(s.svc.Name(), "decode", "%v", err), nil
		}
		return s.applyStream(op.Seq, func() error { return s.applyProfileOp(&op) }), nil
	case protocol.MsgReplWAL:
		var wal protocol.ReplWAL
		if err := protocol.Decode(env, protocol.MsgReplWAL, &wal); err != nil {
			return protocol.Errorf(s.svc.Name(), "decode", "%v", err), nil
		}
		return s.applyStream(wal.Seq, func() error { return s.applyWAL(&wal) }), nil
	case protocol.MsgReplSnapshot:
		var snap protocol.ReplSnapshot
		if err := protocol.Decode(env, protocol.MsgReplSnapshot, &snap); err != nil {
			return protocol.Errorf(s.svc.Name(), "decode", "%v", err), nil
		}
		if err := s.applySnapshot(&snap); err != nil {
			return protocol.Errorf(s.svc.Name(), "snapshot", "%v", err), nil
		}
		return s.ack(), nil
	case protocol.MsgReplPromote:
		var pr protocol.ReplPromote
		if err := protocol.Decode(env, protocol.MsgReplPromote, &pr); err != nil {
			return protocol.Errorf(s.svc.Name(), "decode", "%v", err), nil
		}
		mode := core.RoutingMode(0)
		if pr.Mode != "" {
			m, err := core.ParseRoutingMode(pr.Mode)
			if err != nil {
				return protocol.Errorf(s.svc.Name(), "promote", "%v", err), nil
			}
			mode = m
		}
		if err := s.Promote(ctx, mode); err != nil {
			return protocol.Errorf(s.svc.Name(), "promote", "%v", err), nil
		}
		return protocol.Ack(s.svc.Name(), env), nil
	default:
		return protocol.Errorf(s.svc.Name(), "unsupported", "standby cannot handle %s", env.Header.Type), nil
	}
}

// ack builds the standard applied-position response.
func (s *Standby) ack() *protocol.Envelope {
	return protocol.MustEnvelope(s.svc.Name(), protocol.MsgReplAck, &protocol.ReplAck{AppliedSeq: s.applied.Load()})
}

// resyncAck answers a stream record the standby cannot apply in order.
func (s *Standby) resyncAck() *protocol.Envelope {
	s.resyncs.Inc()
	return protocol.MustEnvelope(s.svc.Name(), protocol.MsgReplAck, &protocol.ReplAck{
		AppliedSeq: s.applied.Load(),
		Resync:     true,
		Addr:       s.addr,
		ServerName: s.svc.Name(),
	})
}

// applyStream runs one in-order stream apply. Records at or below the
// applied position (snapshot overlap) are acknowledged without re-applying;
// gaps and apply failures answer with a resync request instead, making the
// primary push a fresh snapshot.
func (s *Standby) applyStream(seq uint64, apply func() error) *protocol.Envelope {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	s.mu.Lock()
	promoted, synced, applied := s.promoted.Load(), s.synced, s.applied.Load()
	s.mu.Unlock()
	if promoted {
		return protocol.Errorf(s.svc.Name(), "promoted", "standby %s has been promoted; stream rejected", s.svc.Name())
	}
	if !synced || seq > applied+1 {
		// Never synced, or a gap: only a snapshot can catch us up.
		return s.resyncAck()
	}
	if seq <= applied {
		// Duplicate of snapshot content or an already-applied record.
		return s.ack()
	}
	if err := apply(); err != nil {
		s.errors.Inc()
		s.mu.Lock()
		s.synced = false
		s.mu.Unlock()
		return s.resyncAck()
	}
	s.applied.Store(seq)
	s.applies.Inc()
	return s.ack()
}

func (s *Standby) applyProfileOp(op *protocol.ReplProfileOp) error {
	switch op.Op {
	case opSubscribe:
		p, err := profile.UnmarshalXMLBytes(op.Profile.Bytes())
		if err != nil {
			return err
		}
		if op.IDSeq > 0 {
			s.svc.SeedIDCounter(op.IDSeq)
		}
		return s.svc.ApplyReplicatedProfile(p)
	case opUnsubscribe:
		return s.svc.ApplyReplicatedUnsubscribe(op.Client, op.ProfileID)
	default:
		return fmt.Errorf("replica: unknown profile op %q", op.Op)
	}
}

func (s *Standby) applyWAL(wal *protocol.ReplWAL) error {
	for _, it := range wal.Items {
		switch it.Kind {
		case kindAppend:
			n, err := delivery.UnmarshalNotification(it.Notification.Bytes())
			if err != nil {
				return err
			}
			// The notification's trace context survived the wire inside the
			// marshalled record; a sampled one gets its apply recorded so
			// replication cost appears in the trace's span tree.
			traced := s.tracer.Enabled() && n.Trace.Sampled()
			var start time.Time
			if traced {
				start = time.Now()
			}
			if err := s.svc.Delivery().ApplyAppend(it.Client, it.MailboxSeq, n); err != nil {
				return err
			}
			if traced {
				s.tracer.Record(n.Trace, trace.StageReplApply, start, time.Since(start),
					n.Class.String(), trace.Attr{Key: "client", Value: it.Client})
			}
		case kindAck:
			s.svc.Delivery().ApplyAck(it.Client, it.MailboxSeq)
		case kindDedup:
			s.svc.ObserveDedup(it.DedupID)
		default:
			return fmt.Errorf("replica: unknown WAL record kind %q", it.Kind)
		}
	}
	return nil
}

// applySnapshot replaces the standby's replicable state wholesale with the
// snapshot and fast-forwards the stream position to it. It holds applyMu
// for the whole replacement, so a stream record racing in from the
// listener goroutine applies strictly before the reset (and is then
// superseded by the snapshot, which was built after it) or strictly after
// (an in-order continuation) — never half-into a cleared state.
func (s *Standby) applySnapshot(snap *protocol.ReplSnapshot) error {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	if s.promoted.Load() {
		// A snapshot a dying primary still had in flight must not wipe the
		// promoted, serving state (the stream path refuses identically).
		return fmt.Errorf("replica: %s has been promoted; snapshot rejected", s.svc.Name())
	}
	if snap.Server != "" && snap.Server != s.svc.Name() {
		return mismatchErr(snap.Server, s.svc.Name())
	}
	// The destructive phase starts now: drop synced first, so a half-applied
	// snapshot (apply failure below) leaves the standby answering every
	// stream record with a resync request — the primary then pushes a fresh
	// snapshot — instead of consuming the stream onto wiped state at a
	// position that still looks current.
	s.mu.Lock()
	s.synced = false
	s.mu.Unlock()
	s.svc.ResetSubscriptions()
	s.svc.ResetDedup()
	if len(bytes.TrimSpace(snap.Subscriptions.Bytes())) > 0 {
		if _, err := s.svc.LoadSubscriptions(bytes.NewReader(snap.Subscriptions.Bytes())); err != nil {
			return err
		}
	}
	for _, id := range snap.DedupIDs {
		s.svc.ObserveDedup(id)
	}
	boxes := make([]delivery.MailboxSnapshot, 0, len(snap.Mailboxes))
	for _, rm := range snap.Mailboxes {
		mb := delivery.MailboxSnapshot{Client: rm.Client, NextSeq: rm.NextSeq}
		for _, e := range rm.Entries {
			n, err := delivery.UnmarshalNotification(e.Notification.Bytes())
			if err != nil {
				return err
			}
			mb.Entries = append(mb.Entries, delivery.MailboxEntry{Seq: e.Seq, N: n})
		}
		boxes = append(boxes, mb)
	}
	if err := s.svc.Delivery().ApplyMailboxSnapshot(boxes); err != nil {
		return err
	}
	if snap.IDSeq > 0 {
		s.svc.SeedIDCounter(snap.IDSeq)
	}
	applyQoSBuckets(s.svc, snap.QoSBuckets)
	mode := core.RouteBroadcast
	if snap.Mode != "" {
		m, err := core.ParseRoutingMode(snap.Mode)
		if err != nil {
			return err
		}
		mode = m
	}
	s.mu.Lock()
	s.applied.Store(snap.Seq)
	s.synced = true
	s.mode = mode
	s.mu.Unlock()
	s.snapshots.Inc()
	return nil
}

// Promote turns the standby into the serving primary: it registers the
// inherited server name with the GDS (name resolution, broadcasts and
// receptionist traffic now reach this server's address) and re-issues the
// routing-mode state for the inherited profile population — multicast group
// joins or content-digest advertisements, exactly as the dead primary held
// them. mode overrides the mode inherited from the stream; zero keeps it.
//
// Inherited mailbox contents stay parked until their clients re-attach
// (Receptionist.AttachNotifications / core.Service.RegisterNotifier), at
// which point the ordinary reconnect drain delivers everything undelivered
// at the moment the primary died.
func (s *Standby) Promote(ctx context.Context, mode core.RoutingMode) error {
	s.mu.Lock()
	if s.promoted.Load() {
		s.mu.Unlock()
		return nil
	}
	if !s.synced {
		s.mu.Unlock()
		return errors.New("replica: standby never synced; refusing to promote empty state")
	}
	// Committed up front so stream records and snapshots stop applying
	// while the takeover runs — and rolled back on failure, so a retry
	// (e.g. `gs-server -promote` again once the GDS is reachable) actually
	// re-attempts the registration instead of no-opping against a zombie.
	s.promoted.Store(true)
	if mode == 0 {
		mode = s.mode
	}
	s.mu.Unlock()
	rollback := func() { s.promoted.Store(false) }
	if s.gdsCli != nil {
		if err := s.gdsCli.Register(ctx); err != nil {
			rollback()
			return fmt.Errorf("replica: promote register: %w", err)
		}
	}
	if err := s.svc.SetRoutingMode(ctx, mode); err != nil {
		rollback()
		return fmt.Errorf("replica: promote routing mode %s: %w", mode, err)
	}
	s.log.Info("standby promoted to primary",
		logging.String("server", s.svc.Name()), logging.String("mode", mode.String()))
	return nil
}
