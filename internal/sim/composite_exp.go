package sim

import (
	"context"
	"fmt"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/metrics"
)

// E13 — composite & temporal alerting across the dissemination ladder.
// A publisher rebuilds one collection while a subscriber on another server
// holds four composite profiles: an unwindowed sequence (documents-added
// THEN documents-removed), the same sequence WITHIN 1h (expired by a
// simulated clock jump before the removal arrives), an accumulation
// (COUNT 3 OF collection-rebuilt) and a daily digest of the rebuild
// summaries. The run is repeated in every routing mode — broadcast,
// multicast, content — and must synthesize exactly the same notifications
// in each: composite state machines consume whatever primitives the
// dissemination layer delivers, so routing optimisations must never change
// what fires.

// CompositeAlertsResult is one E13 row (one routing mode).
type CompositeAlertsResult struct {
	Mode    string
	Servers int
	// Rounds is the number of add-rounds (each also a rebuild); one more
	// rebuild removes the added documents.
	Rounds int
	// Sequence counts firings of the unwindowed sequence profile.
	Sequence int
	// SequenceWindowed counts firings of the 1h-windowed sequence (the
	// expiry check: must be zero).
	SequenceWindowed int
	// Count counts accumulation firings.
	Count int
	// Digest counts digest flush notifications.
	Digest int
	// DigestEvents is the number of primitive events the digest carried.
	DigestEvents int
	// WindowsExpired is the subscriber engine's expiry counter.
	WindowsExpired int64
	// LiveInstances is the subscriber engine's open-instance gauge after
	// the run (the leftover accumulation window).
	LiveInstances int64
	// Messages is the total transport message cost.
	Messages int64
}

// expectedCompositeAlerts returns the exact synthesized-notification
// counts E13 must produce for the given add-round count, identical in
// every routing mode.
func expectedCompositeAlerts(rounds int) (sequence, sequenceWindowed, count, digest, digestEvents int) {
	// One instance opens per documents-added event — one per add-round
	// (first builds emit only the collection-built summary); the final
	// removal advances them all.
	sequence = rounds
	sequenceWindowed = 0
	// Rebuild summaries: one per add-round plus the removal round.
	rebuilds := rounds + 1
	count = rebuilds / 3
	digest = 1
	digestEvents = rebuilds
	return
}

// RunCompositeAlerts plays the E13 scenario through one routing mode.
func RunCompositeAlerts(servers, rounds int, mode core.RoutingMode, seed int64) (CompositeAlertsResult, error) {
	c, names, err := NewTree(seed, servers, mode, nil)
	if err != nil {
		return CompositeAlertsResult{}, err
	}
	defer c.Close()
	ctx := context.Background()
	pub, sub := names[0], names[1]
	coll := pub + ".X"
	if _, err := c.Server(pub).AddCollection(ctx, collection.Config{Name: "X", Public: true}); err != nil {
		return CompositeAlertsResult{}, err
	}

	sink := c.Notifier(sub, "u")
	svc := c.Service(sub)
	subscribe := func(src string) (string, error) { return svc.SubscribeComposite("u", src) }
	seqID, err := subscribe(fmt.Sprintf(
		`SEQUENCE (collection = "%s" AND event.type = "documents-added") THEN (collection = "%s" AND event.type = "documents-removed")`, coll, coll))
	if err != nil {
		return CompositeAlertsResult{}, err
	}
	seqWinID, err := subscribe(fmt.Sprintf(
		`SEQUENCE (collection = "%s" AND event.type = "documents-added") THEN (collection = "%s" AND event.type = "documents-removed") WITHIN 1h`, coll, coll))
	if err != nil {
		return CompositeAlertsResult{}, err
	}
	countID, err := subscribe(fmt.Sprintf(
		`COUNT 3 OF (collection = "%s" AND event.type = "collection-rebuilt")`, coll))
	if err != nil {
		return CompositeAlertsResult{}, err
	}
	digestID, err := subscribe(fmt.Sprintf(
		`DIGEST (collection = "%s" AND event.type = "collection-rebuilt") EVERY 24h`, coll))
	if err != nil {
		return CompositeAlertsResult{}, err
	}

	// Base corpus; each add-round contributes one new document, the final
	// round removes them all again.
	base := []*collection.Document{{ID: "base-0", Content: "stable document"}}
	docs := append([]*collection.Document(nil), base...)

	c.TR.ResetStats()
	if _, _, err := c.Server(pub).Build(ctx, "X", docs); err != nil {
		return CompositeAlertsResult{}, err
	}
	for r := 1; r <= rounds; r++ {
		docs = append(docs, &collection.Document{
			ID:      fmt.Sprintf("extra-%d", r),
			Content: fmt.Sprintf("document of round %d", r),
		})
		if _, _, err := c.Server(pub).Build(ctx, "X", docs); err != nil {
			return CompositeAlertsResult{}, err
		}
	}
	c.Settle(ctx)
	// Jump the subscriber's composite clock past every 1h window: the
	// windowed sequence's open instances expire; the unwindowed ones and
	// the 24h digest are untouched.
	svc.CompositeTick(time.Now().Add(2 * time.Hour))

	// The removal round: back to the base corpus.
	if _, _, err := c.Server(pub).Build(ctx, "X", base); err != nil {
		return CompositeAlertsResult{}, err
	}
	c.Settle(ctx)

	// Flush the digest (one simulated day later) and settle the resulting
	// synthesized notification through the delivery pipeline.
	svc.CompositeTick(time.Now().Add(25 * time.Hour))
	c.Settle(ctx)

	out := CompositeAlertsResult{
		Mode:     mode.String(),
		Servers:  servers,
		Rounds:   rounds,
		Messages: c.TR.Stats().Sent,
	}
	for _, n := range sink.All() {
		switch n.ProfileID {
		case seqID:
			out.Sequence++
		case seqWinID:
			out.SequenceWindowed++
		case countID:
			out.Count++
		case digestID:
			out.Digest++
			out.DigestEvents += len(n.Contributing)
		}
	}
	st := svc.Stats()
	out.WindowsExpired = st.CompositeWindowsExpired
	out.LiveInstances = st.CompositeLiveInstances
	return out, nil
}

// CompositeAlertsTable runs E13 over all three routing modes, asserting
// that every mode synthesizes exactly the expected notifications.
func CompositeAlertsTable(servers, rounds int, seed int64) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("E13 — composite & temporal alerting across routing modes (%d servers, %d add-rounds + 1 removal)", servers, rounds),
		"mode", "seq fired", "seq(1h) fired", "count fired", "digests", "digest events", "windows expired", "messages")
	wantSeq, wantSeqWin, wantCount, wantDigest, wantDigestEvents := expectedCompositeAlerts(rounds)
	for _, mode := range []core.RoutingMode{core.RouteBroadcast, core.RouteMulticast, core.RouteContent} {
		r, err := RunCompositeAlerts(servers, rounds, mode, seed)
		if err != nil {
			return nil, err
		}
		if r.Sequence != wantSeq || r.SequenceWindowed != wantSeqWin ||
			r.Count != wantCount || r.Digest != wantDigest || r.DigestEvents != wantDigestEvents {
			return nil, fmt.Errorf("sim: E13 %s synthesized seq=%d seqWin=%d count=%d digest=%d digestEvents=%d, want %d/%d/%d/%d/%d — modes are not equivalent",
				r.Mode, r.Sequence, r.SequenceWindowed, r.Count, r.Digest, r.DigestEvents,
				wantSeq, wantSeqWin, wantCount, wantDigest, wantDigestEvents)
		}
		t.AddRow(r.Mode, r.Sequence, r.SequenceWindowed, r.Count, r.Digest, r.DigestEvents, r.WindowsExpired, r.Messages)
	}
	return t, nil
}
