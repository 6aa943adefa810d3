package delivery

// Replication support: the pipeline exposes its logical mailbox mutations
// (appends, acks) to an observer and accepts the mirrored stream on the
// standby side, where applied entries rest parked until the standby is
// promoted and their clients re-attach. internal/replica wires the two ends
// together over the transport.

// MailboxOp is one logical mailbox mutation: an append of a new pending
// notification, or an ack removing one (delivered or evicted by the cap).
type MailboxOp struct {
	// Client owns the mailbox.
	Client string
	// Seq is the mailbox sequence of the affected entry.
	Seq uint64
	// Ack marks a removal; false is an append.
	Ack bool
	// N is the appended notification (zero value on acks).
	N Notification
}

// SetObserver installs fn to be called with every batch of logical mailbox
// mutations, outside mailbox locks: an enqueue reports its appends (one
// call per EnqueueChunk, with any cap evictions) before the items are
// queued for delivery; a flush pass reports the acks of all its client
// batches in one call after the mailboxes were updated, and before Drain
// can return. Replace or clear (nil) at any time; only mutations after the
// call are observed — pair SetObserver with ExportMailboxes for a
// consistent starting point.
func (p *Pipeline) SetObserver(fn func(ops []MailboxOp)) {
	p.mu.Lock()
	p.obs = fn
	p.mu.Unlock()
}

func (p *Pipeline) observer() func([]MailboxOp) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.obs
}

// MailboxEntry is one undelivered notification in a mailbox export.
type MailboxEntry struct {
	Seq uint64
	N   Notification
}

// MailboxSnapshot is the full pending set of one user's mailbox.
type MailboxSnapshot struct {
	Client  string
	NextSeq uint64
	Entries []MailboxEntry
}

// ExportMailboxes snapshots every mailbox's pending set (parked and
// inflight alike: inflight entries are undelivered until acked), for
// replication snapshots. Users with empty mailboxes are included so the
// standby learns their sequence counters.
func (p *Pipeline) ExportMailboxes() []MailboxSnapshot {
	p.mu.Lock()
	boxes := make(map[string]*mailbox, len(p.mailboxes))
	for user, mb := range p.mailboxes {
		boxes[user] = mb
	}
	p.mu.Unlock()
	out := make([]MailboxSnapshot, 0, len(boxes))
	for user, mb := range boxes {
		next, entries := mb.export()
		snap := MailboxSnapshot{Client: user, NextSeq: next}
		for _, e := range entries {
			snap.Entries = append(snap.Entries, MailboxEntry{Seq: e.seq, N: e.n})
		}
		out = append(out, snap)
	}
	return out
}

// ApplyAppend installs one replicated pending notification with the
// primary's mailbox sequence. The entry is parked — nothing is queued for
// delivery — until the owning client attaches (after promotion).
func (p *Pipeline) ApplyAppend(client string, seq uint64, n Notification) error {
	mb, err := p.mailboxOf(client)
	if err != nil {
		return err
	}
	return mb.applyAppend(seq, n)
}

// ApplyAck removes a replicated-delivered (or replicated-evicted) entry.
// Unknown sequences are ignored.
func (p *Pipeline) ApplyAck(client string, seq uint64) {
	p.mu.Lock()
	mb := p.mailboxes[client]
	p.mu.Unlock()
	if mb != nil {
		mb.applyAck(seq)
	}
}

// ApplyMailboxSnapshot replaces the entire mailbox population with the
// snapshot: mailboxes absent from it are emptied, listed ones take exactly
// the snapshot's pending set (parked). Durable mailboxes rewrite their WALs
// to match.
func (p *Pipeline) ApplyMailboxSnapshot(snaps []MailboxSnapshot) error {
	inSnap := make(map[string]bool, len(snaps))
	for _, s := range snaps {
		inSnap[s.Client] = true
	}
	p.mu.Lock()
	var stale []*mailbox
	for user, mb := range p.mailboxes {
		if !inSnap[user] {
			stale = append(stale, mb)
		}
	}
	p.mu.Unlock()
	var firstErr error
	for _, mb := range stale {
		if err := mb.replaceAll(0, nil); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, s := range snaps {
		mb, err := p.mailboxOf(s.Client)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		entries := make([]entry, 0, len(s.Entries))
		for _, e := range s.Entries {
			entries = append(entries, entry{seq: e.Seq, n: e.N})
		}
		if err := mb.replaceAll(s.NextSeq, entries); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// MarshalNotification renders a notification in the mailbox WAL's XML form;
// the replication stream reuses it so both persisted and replicated copies
// share one format.
func MarshalNotification(n Notification) ([]byte, error) {
	return marshalNotification(n)
}

// UnmarshalNotification inverts MarshalNotification.
func UnmarshalNotification(raw []byte) (Notification, error) {
	return unmarshalNotification(raw)
}
