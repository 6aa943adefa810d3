package delivery

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestMailboxWALCrashRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mb, err := newMailbox(dir, "alice", 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for i := 0; i < 10; i++ {
		seq, evicted, err := mb.add(testNotification("alice", i))
		if err != nil {
			t.Fatal(err)
		}
		if len(evicted) != 0 {
			t.Fatalf("unexpected eviction at %d", i)
		}
		seqs = append(seqs, seq)
	}
	// Deliver the first four.
	mb.ack(seqs[:4], nil)
	// Crash: no close, no compaction — reopen from the raw WAL.
	mb2, err := newMailbox(dir, "alice", 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer mb2.close()
	if got := mb2.pendingCount(); got != 6 {
		t.Fatalf("recovered pending = %d, want 6", got)
	}
	// Recovered entries are parked, carry their payloads, and keep order.
	items := mb2.takePending()
	for i, it := range items {
		want := fmt.Sprintf("d%d", i+4)
		if it.n.DocIDs[0] != want {
			t.Errorf("recovered[%d] = %v, want %s", i, it.n.DocIDs, want)
		}
		if it.n.Event == nil || it.n.Event.Collection.String() != "Hamilton.D" {
			t.Errorf("recovered[%d] event = %+v", i, it.n.Event)
		}
		if it.n.ProfileID != "p-alice" {
			t.Errorf("recovered[%d] profile = %q", i, it.n.ProfileID)
		}
	}
	// Sequences continue past the recovered maximum: no reuse after crash.
	seq, _, err := mb2.add(testNotification("alice", 99))
	if err != nil {
		t.Fatal(err)
	}
	if seq <= seqs[len(seqs)-1] {
		t.Errorf("post-recovery seq %d not above %d", seq, seqs[len(seqs)-1])
	}
}

func TestMailboxWALTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	mb, err := newMailbox(dir, "bob", 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := mb.add(testNotification("bob", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := mb.wal.Close(); err != nil {
		t.Fatal(err)
	}
	mb.wal = nil
	// Simulate a crash mid-append: a record header with no payload.
	path := filepath.Join(dir, mailboxFileName("bob"))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{recAppend, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	mb2, err := newMailbox(dir, "bob", 100, 1000)
	if err != nil {
		t.Fatalf("torn tail broke recovery: %v", err)
	}
	defer mb2.close()
	if got := mb2.pendingCount(); got != 5 {
		t.Fatalf("recovered pending = %d, want 5 (torn record discarded)", got)
	}
}

// TestMailboxWALTornTailTruncatedBeforeAppend covers the double-crash
// scenario: a torn tail must be cut away on recovery so records appended
// afterwards remain readable by the NEXT recovery.
func TestMailboxWALTornTailTruncatedBeforeAppend(t *testing.T) {
	dir := t.TempDir()
	mb, err := newMailbox(dir, "dana", 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := mb.add(testNotification("dana", i)); err != nil {
			t.Fatal(err)
		}
	}
	mb.wal.Close()
	mb.wal = nil
	path := filepath.Join(dir, mailboxFileName("dana"))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{recAppend, 0, 0, 0, 0, 0}) // torn mid-header
	f.Close()

	// First recovery truncates the torn bytes; new appends go after the
	// last intact record.
	mb2, err := newMailbox(dir, "dana", 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := mb2.pendingCount(); got != 3 {
		t.Fatalf("pending after torn recovery = %d, want 3", got)
	}
	for i := 3; i < 6; i++ {
		if _, _, err := mb2.add(testNotification("dana", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := mb2.wal.Close(); err != nil {
		t.Fatal(err)
	}
	mb2.wal = nil

	// Second recovery must see ALL six — the post-crash appends are not
	// hidden behind garbage.
	mb3, err := newMailbox(dir, "dana", 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer mb3.close()
	if got := mb3.pendingCount(); got != 6 {
		t.Fatalf("pending after second recovery = %d, want 6 (appends lost behind torn tail)", got)
	}
}

func TestMailboxCompactionShrinksWAL(t *testing.T) {
	dir := t.TempDir()
	mb, err := newMailbox(dir, "carol", 10000, 8) // compact after 8 dead records
	if err != nil {
		t.Fatal(err)
	}
	defer mb.close()
	var seqs []uint64
	for i := 0; i < 50; i++ {
		seq, _, err := mb.add(testNotification("carol", i))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	path := filepath.Join(dir, mailboxFileName("carol"))
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Deliver 48 of 50: compaction triggers and rewrites only 2 live entries.
	mb.ack(seqs[:48], nil)
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("WAL did not shrink: before=%d after=%d", before.Size(), after.Size())
	}
	// The compacted snapshot still recovers correctly.
	mb2, err := newMailbox(dir, "carol", 10000, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer mb2.close()
	if got := mb2.pendingCount(); got != 2 {
		t.Fatalf("pending after compaction+recovery = %d, want 2", got)
	}
	items := mb2.takePending()
	if items[0].n.DocIDs[0] != "d48" || items[1].n.DocIDs[0] != "d49" {
		t.Errorf("live entries = %v %v", items[0].n.DocIDs, items[1].n.DocIDs)
	}
}

// TestMailboxAppendsAfterCompactionRecovered checks that compaction leaves
// the mailbox durable: appends made after it land in the log a restart
// reads.
func TestMailboxAppendsAfterCompactionRecovered(t *testing.T) {
	dir := t.TempDir()
	mb, err := newMailbox(dir, "erin", 100, 4) // compact after 4 dead records
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for i := 0; i < 6; i++ {
		seq, _, err := mb.add(testNotification("erin", i))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	mb.ack(seqs[:5], nil)
	if mb.deadRecords != 0 {
		t.Fatalf("dead records = %d after acking 5 of 6: compaction did not run", mb.deadRecords)
	}
	for i := 6; i < 9; i++ {
		if _, _, err := mb.add(testNotification("erin", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no close(), which would compact again.
	if err := mb.wal.Close(); err != nil {
		t.Fatal(err)
	}
	mb.wal = nil

	mb2, err := newMailbox(dir, "erin", 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer mb2.close()
	var got []string
	for _, it := range mb2.takePending() {
		got = append(got, it.n.DocIDs[0])
	}
	if fmt.Sprint(got) != "[d5 d6 d7 d8]" {
		t.Fatalf("recovered %v, want [d5 d6 d7 d8]", got)
	}
}

func TestRecoverMailboxesScansDirectory(t *testing.T) {
	dir := t.TempDir()
	for _, user := range []string{"alice", "bob/with-slash", "carol space"} {
		mb, err := newMailbox(dir, user, 100, 1000)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, _, err := mb.add(testNotification(user, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := mb.close(); err != nil {
			t.Fatal(err)
		}
	}
	// A foreign file is skipped, not an error.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	boxes, err := recoverMailboxes(dir, 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 3 {
		t.Fatalf("recovered %d mailboxes, want 3", len(boxes))
	}
	for user, mb := range boxes {
		if got := mb.pendingCount(); got != 3 {
			t.Errorf("%s pending = %d, want 3", user, got)
		}
		mb.close()
	}
}

// TestPipelineDurableRestart is the end-to-end crash-recovery round-trip:
// notifications enqueued for an offline user survive a pipeline restart and
// drain to the user on reconnect.
func TestPipelineDurableRestart(t *testing.T) {
	dir := t.TempDir()
	p1, err := NewPipeline(Config{Shards: 2, Dir: dir, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := p1.Enqueue(testNotification("offline-user", i)); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, p1)
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: recovered notifications are reported and parked.
	p2, err := NewPipeline(Config{Shards: 2, Dir: dir, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.Metrics().Recovered.Value(); got != 7 {
		t.Fatalf("recovered = %d, want 7", got)
	}
	if got := p2.Pending("offline-user"); got != 7 {
		t.Fatalf("pending = %d, want 7", got)
	}
	sink := &recordingSink{}
	p2.Attach("offline-user", sink.deliver)
	drain(t, p2)
	if sink.len() != 7 {
		t.Fatalf("drained = %d, want 7", sink.len())
	}
	// Delivery acked durably: a third incarnation starts empty.
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	p3, err := NewPipeline(Config{Shards: 2, Dir: dir, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	if got := p3.Pending("offline-user"); got != 0 {
		t.Fatalf("pending after delivered restart = %d, want 0", got)
	}
}

func TestNotificationSerialisationRoundTrip(t *testing.T) {
	n := testNotification("u", 3)
	raw, err := marshalNotification(n)
	if err != nil {
		t.Fatal(err)
	}
	back, err := unmarshalNotification(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Client != n.Client || back.ProfileID != n.ProfileID {
		t.Errorf("round trip: %+v", back)
	}
	if len(back.DocIDs) != 1 || back.DocIDs[0] != "d3" {
		t.Errorf("doc ids: %v", back.DocIDs)
	}
	if !back.At.Equal(n.At) {
		t.Errorf("at: %v != %v", back.At, n.At)
	}
	if back.Event == nil || back.Event.ID != n.Event.ID || back.Event.Type != n.Event.Type {
		t.Errorf("event: %+v", back.Event)
	}
	// Event-less notifications (pure doc matches) survive too.
	n2 := Notification{Client: "u", ProfileID: "p", At: time.Unix(1, 0)}
	raw2, err := marshalNotification(n2)
	if err != nil {
		t.Fatal(err)
	}
	back2, err := unmarshalNotification(raw2)
	if err != nil {
		t.Fatal(err)
	}
	if back2.Event != nil {
		t.Errorf("phantom event: %+v", back2.Event)
	}
}
