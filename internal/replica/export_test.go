package replica

import "context"

// SyncSnapshot pushes a full snapshot to the attached standby (anti-entropy
// on demand; joins and resyncs trigger it automatically).
func (p *Primary) SyncSnapshot(ctx context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sendSnapshotLocked(ctx)
}
