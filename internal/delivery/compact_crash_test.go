package delivery

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// Compaction rewrites a mailbox WAL in two steps: write the snapshot to
// <wal>.tmp (fsynced), then rename it over the log. These tests kill the
// process at each boundary and assert recoverMailboxes restores exactly the
// pre-compaction pending set — no duplicated and no lost sequences.

// compactionFixture builds a durable mailbox with 10 appends and 4 acks,
// returning the live (pending) sequences.
func compactionFixture(t *testing.T, dir string) (live []uint64) {
	t.Helper()
	mb, err := newMailbox(dir, "u", 100, 1<<30) // threshold high: no auto compaction
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for i := 0; i < 10; i++ {
		seq, _, err := mb.add(testNotification("u", i))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	mb.ack(seqs[:4])

	// Crash between the WAL rewrite and the rename: the snapshot exists as
	// <wal>.tmp, the append-log is still the authoritative file. Driving
	// the real snapshot writer (compaction's first phase) keeps the test
	// honest about the on-disk bytes.
	mb.mu.Lock()
	snap, err := mb.writeSnapshotLocked(mb.walPath + ".tmp")
	mb.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// The crash: both handles die with the process; no close(), which
	// would compact cleanly.
	crash(t, mb, snap)
	return seqs[4:]
}

// crash drops a mailbox's WAL handle and a snapshot handle the way a killed
// process would: the files stay as written.
func crash(t *testing.T, mb *mailbox, snap *os.File) {
	t.Helper()
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mb.wal.Close(); err != nil {
		t.Fatal(err)
	}
	mb.wal = nil
}

func pendingSeqs(mb *mailbox) []uint64 {
	_, entries := mb.export()
	out := make([]uint64, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameSeqs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRecoverAfterCrashBetweenRewriteAndRename(t *testing.T) {
	dir := t.TempDir()
	live := compactionFixture(t, dir)

	boxes, err := recoverMailboxes(dir, 100, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	mb := boxes["u"]
	if mb == nil {
		t.Fatalf("mailbox not recovered; boxes = %v", boxes)
	}
	defer mb.close()
	if got := pendingSeqs(mb); !sameSeqs(got, live) {
		t.Errorf("recovered sequences = %v, want the pre-compaction live set %v (no duplicates, no losses)", got, live)
	}
	// The orphaned .tmp must not have been recovered as a second mailbox.
	if len(boxes) != 1 {
		users := make([]string, 0, len(boxes))
		for u := range boxes {
			users = append(users, u)
		}
		t.Errorf("recovered %d mailboxes (%v), want 1 — the .tmp leaked in", len(boxes), users)
	}
	// New appends continue above the recovered maximum: no sequence reuse.
	seq, _, err := mb.add(testNotification("u", 99))
	if err != nil {
		t.Fatal(err)
	}
	if seq <= live[len(live)-1] {
		t.Errorf("post-recovery seq %d reuses a pre-crash sequence (max live %d)", seq, live[len(live)-1])
	}
}

func TestRecoverAfterCrashJustAfterRename(t *testing.T) {
	dir := t.TempDir()
	live := compactionFixture(t, dir)

	// The other side of the boundary: the rename landed, the process died
	// before the in-memory counters reset. On disk only the snapshot
	// remains.
	walPath := filepath.Join(dir, mailboxFileName("u"))
	if err := os.Rename(walPath+".tmp", walPath); err != nil {
		t.Fatal(err)
	}
	boxes, err := recoverMailboxes(dir, 100, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	mb := boxes["u"]
	if mb == nil {
		t.Fatal("mailbox not recovered")
	}
	defer mb.close()
	if got := pendingSeqs(mb); !sameSeqs(got, live) {
		t.Errorf("recovered sequences = %v, want %v", got, live)
	}
}

// TestCompactionSurvivesRepeatedCrashCycles drives several
// fill→ack→half-compact→recover cycles and asserts the live set never
// drifts: recovery must be idempotent against a stale .tmp from any
// earlier cycle.
func TestCompactionSurvivesRepeatedCrashCycles(t *testing.T) {
	dir := t.TempDir()
	mb, err := newMailbox(dir, "u", 100, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	var live []uint64
	for cycle := 0; cycle < 3; cycle++ {
		var added []uint64
		for i := 0; i < 4; i++ {
			seq, _, err := mb.add(testNotification("u", cycle*10+i))
			if err != nil {
				t.Fatal(err)
			}
			added = append(added, seq)
		}
		mb.ack(added[:1])
		live = append(live, added[1:]...)

		mb.mu.Lock()
		snap, err := mb.writeSnapshotLocked(mb.walPath + ".tmp")
		mb.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		crash(t, mb, snap)
		boxes, err := recoverMailboxes(dir, 100, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		mb = boxes["u"]
		if mb == nil {
			t.Fatal("mailbox lost in recovery")
		}
		if got := pendingSeqs(mb); !sameSeqs(got, live) {
			t.Fatalf("cycle %d: recovered %v, want %v", cycle, got, live)
		}
	}
	mb.close()
}
