package core

import (
	"fmt"

	"github.com/gsalert/gsalert/internal/profile"
)

// Replication hooks: a Service can stream its replicable state changes —
// profile (un)subscriptions including composite wrappers and auxiliaries,
// and dedup admissions — to a ReplicationSink (internal/replica's primary
// end), and apply the mirrored stream on a standby. Mailbox WAL activity
// replicates through the delivery pipeline's own observer
// (delivery.Pipeline.SetObserver); the service only covers the state it
// owns itself.

// ReplicationSink observes the service's replicable state changes. Hooks
// are invoked outside the service's locks, after the local mutation
// succeeded; implementations must tolerate concurrent calls.
type ReplicationSink interface {
	// ReplicateProfileAdd observes a registered profile: user, composite
	// wrapper or auxiliary. Composite step profiles are derived state and
	// never reported.
	ReplicateProfileAdd(p *profile.Profile)
	// ReplicateProfileRemove observes a removed profile. client is empty
	// for auxiliary profiles.
	ReplicateProfileRemove(client, profileID string)
	// ReplicateDedup observes an event ID admitted to the dedup window.
	ReplicateDedup(id string)
}

// SetReplicationSink installs (or clears, with nil) the replication sink.
// Only changes after the call are observed; internal/replica pairs it with
// a snapshot for a consistent starting point.
func (s *Service) SetReplicationSink(sink ReplicationSink) {
	s.mu.Lock()
	s.replSink = sink
	s.mu.Unlock()
}

func (s *Service) replicationSink() ReplicationSink {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replSink
}

func (s *Service) replicateProfileAdd(p *profile.Profile) {
	if sink := s.replicationSink(); sink != nil {
		sink.ReplicateProfileAdd(p)
	}
}

func (s *Service) replicateProfileRemove(client, profileID string) {
	if sink := s.replicationSink(); sink != nil {
		sink.ReplicateProfileRemove(client, profileID)
	}
}

func (s *Service) replicateDedup(id string) {
	if sink := s.replicationSink(); sink != nil {
		sink.ReplicateDedup(id)
	}
}

// ReplicaStats is the replication-role counters merged into ServiceStats by
// a registered provider (the primary or standby end of internal/replica).
type ReplicaStats struct {
	// Role is "primary", "standby" or "" (replication off).
	Role string
	// StreamSeq is the stream position: envelopes sent (primary) or applied
	// (standby). One envelope carries a run of records (group commit).
	StreamSeq uint64
	// Streamed counts records shipped (primary) or envelopes applied
	// (standby).
	Streamed int64
	// Dropped counts records discarded while no standby was attached or
	// the stream was broken (primary only); a rejoin resyncs via snapshot.
	Dropped int64
	// Errors counts stream transport or apply failures.
	Errors int64
	// Snapshots counts full-state snapshots sent (primary) or applied
	// (standby).
	Snapshots int64
	// Resyncs counts snapshot catch-ups requested after a gap or apply
	// failure.
	Resyncs int64
	// Promoted reports a standby that has taken over as serving primary.
	Promoted bool
	// StreamLag is the primary's unconfirmed stream window: envelopes
	// streamed past the standby's last acknowledged position. Zero on
	// standbys. The health plane alerts on sustained lag.
	StreamLag uint64
}

// ReplicaStatsProvider supplies ReplicaStats snapshots for Stats merging.
type ReplicaStatsProvider interface {
	ReplicaStats() ReplicaStats
}

// SetReplicaStatsProvider registers the replication end whose counters
// Stats() should report.
func (s *Service) SetReplicaStatsProvider(p ReplicaStatsProvider) { s.replStats.Store(&p) }

// ---------------------------------------------------------------------------
// Standby-side apply

// ApplyReplicatedProfile installs a profile received from the replication
// stream or a snapshot: user and composite profiles register exactly as
// local subscriptions do (replacing an existing ID), auxiliary profiles go
// to the auxiliary matcher.
func (s *Service) ApplyReplicatedProfile(p *profile.Profile) error {
	switch p.Kind {
	case profile.KindUser:
		return s.addUserProfile(p)
	case profile.KindAuxiliary:
		return s.aux.Add(p)
	default:
		return fmt.Errorf("core: replicated profile %s has unknown kind", p.ID)
	}
}

// ApplyReplicatedUnsubscribe removes a profile per a replicated
// unsubscription. An empty client names an auxiliary profile.
func (s *Service) ApplyReplicatedUnsubscribe(client, profileID string) error {
	if client == "" {
		s.aux.Remove(profileID)
		return nil
	}
	return s.Unsubscribe(client, profileID)
}

// ObserveDedup admits a replicated event ID to the dedup window, reporting
// whether it was already present.
func (s *Service) ObserveDedup(id string) bool {
	return s.dedup.Observe(id)
}

// DedupIDs exports the dedup window in admission order (snapshots).
func (s *Service) DedupIDs() []string {
	return s.dedup.IDs()
}

// ResetDedup clears the dedup window (before a snapshot apply).
func (s *Service) ResetDedup() {
	s.dedup.Reset()
}

// IDSeq reports the profile-ID counter, streamed so a promoted standby
// never mints an ID the primary already used.
func (s *Service) IDSeq() uint64 {
	return s.idCounter.Load()
}

// SeedIDCounter raises the profile-ID counter to at least n.
func (s *Service) SeedIDCounter(n uint64) {
	for {
		cur := s.idCounter.Load()
		if cur >= n || s.idCounter.CompareAndSwap(cur, n) {
			return
		}
	}
}

// ResetSubscriptions removes every user, composite and auxiliary profile —
// the blank slate before a snapshot apply. The teardown goes through the
// ordinary unsubscribe paths so multicast/content bookkeeping stays
// consistent (a passive standby in broadcast mode touches no directory
// state).
func (s *Service) ResetSubscriptions() {
	s.mu.Lock()
	composites := make([]*profile.Profile, 0, len(s.compositeProfiles))
	for _, p := range s.compositeProfiles {
		composites = append(composites, p)
	}
	s.mu.Unlock()
	for _, p := range composites {
		_ = s.removeCompositeProfile(p.Owner, p)
	}
	for _, p := range s.matcher.All() {
		if p.CompositeOf != "" {
			continue // torn down with its parent above
		}
		_ = s.Unsubscribe(p.Owner, p.ID)
	}
	for _, p := range s.aux.All() {
		s.aux.Remove(p.ID)
	}
}
