package main

import (
	"bytes"
	"context"
	"sync/atomic"
	"time"

	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/protocol"
)

// recorder is where every sink writes. The timing path takes no lock and
// touches no map: counters and fingerprints are per-client atomics, latency
// samples land in a pre-allocated array at an atomically claimed index, and
// the due time of an event is found by the sequence number in its ID.
type recorder struct {
	count     []atomic.Int64  // primitive notifications per client
	sum       []atomic.Uint64 // Σ pairHash per client
	composite []atomic.Int64  // composite notifications per client
	malformed atomic.Int64    // notifications whose IDs the generator did not mint

	phase atomic.Pointer[timedPhase] // non-nil while a paced phase records latency
}

// timedPhase holds the per-event clocks of one paced phase.
type timedPhase struct {
	base int     // sequence number of the phase's first event
	due  []int64 // unix nanoseconds each event was due
	// matchEnd[server][i] is when server finished matching event base+i
	// (traced runs only; dwell = sink arrival − match end).
	matchEnd [][]int64

	notify samples // due → sink arrival, one per notification
	dwell  samples // match end → sink arrival (traced runs only)
}

// samples is a fixed-capacity lock-free sample buffer, sized to the oracle's
// expected count; anything beyond it is a duplicate, which verify reports.
type samples struct {
	v []int64
	n atomic.Int64
}

func (s *samples) init(capacity int) { s.v = make([]int64, capacity) }

func (s *samples) add(x int64) {
	i := s.n.Add(1) - 1
	if int(i) < len(s.v) {
		s.v[i] = x
	}
}

func (s *samples) values() []int64 { return s.v[:min(int(s.n.Load()), len(s.v))] }

func newRecorder(clients int) *recorder {
	return &recorder{
		count:     make([]atomic.Int64, clients),
		sum:       make([]atomic.Uint64, clients),
		composite: make([]atomic.Int64, clients),
	}
}

// record accounts one delivered notification. server is the index of the
// server whose pipeline delivered it.
func (r *recorder) record(server int, client, profileID, eventID string, isComposite bool, now int64, ph *timedPhase) {
	c, ok := parseID(client, 'c')
	if !ok || c >= len(r.count) {
		r.malformed.Add(1)
		return
	}
	if isComposite {
		r.composite[c].Add(1)
		return
	}
	p, okP := parseID(profileID, 'p')
	seq, okE := parseID(eventID, 'e')
	if !okP || !okE {
		r.malformed.Add(1)
		return
	}
	r.count[c].Add(1)
	r.sum[c].Add(pairHash(seq, p))
	if ph == nil {
		return
	}
	if i := seq - ph.base; i >= 0 && i < len(ph.due) && ph.due[i] != 0 {
		ph.notify.add(now - ph.due[i])
		if ph.matchEnd != nil {
			if m := atomic.LoadInt64(&ph.matchEnd[server][i]); m != 0 {
				ph.dwell.add(now - m)
			}
		}
	}
}

// batchSink is an in-process core.BatchNotifier for one client.
type batchSink struct {
	rec    *recorder
	server int
	tr     *tracer // nil in untraced runs
}

var _ core.BatchNotifier = (*batchSink)(nil)

func (s *batchSink) Notify(n core.Notification) { _ = s.NotifyBatch([]core.Notification{n}) }

func (s *batchSink) NotifyBatch(ns []core.Notification) error {
	sp := s.tr.start(nil, "sink-batch", layerDelivery)
	now := time.Now().UnixNano()
	ph := s.rec.phase.Load()
	for i := range ns {
		n := &ns[i]
		s.rec.record(s.server, n.Client, n.ProfileID, n.Event.ID, n.Composite != "", now, ph)
	}
	sp.end()
	return nil
}

// wireSink handles gs.notify* envelopes pushed to a client-side listener
// (wire_flood). It reads the event ID out of the raw event XML instead of
// decoding the whole event: the receiving client is not under test.
type wireSink struct {
	rec    *recorder
	server int
}

func (s *wireSink) Handle(_ context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
	now := time.Now().UnixNano()
	ph := s.rec.phase.Load()
	item := func(n *protocol.Notify) {
		s.rec.record(s.server, n.Client, n.ProfileID, rawEventID(n.Event.Bytes()), n.Composite != "", now, ph)
	}
	switch env.Header.Type {
	case protocol.MsgNotifyBatch:
		var b protocol.NotifyBatch
		if err := protocol.Decode(env, protocol.MsgNotifyBatch, &b); err != nil {
			return nil, err
		}
		for i := range b.Items {
			item(&b.Items[i])
		}
	case protocol.MsgNotify:
		var n protocol.Notify
		if err := protocol.Decode(env, protocol.MsgNotify, &n); err != nil {
			return nil, err
		}
		item(&n)
	default:
		s.rec.malformed.Add(1)
	}
	return nil, nil
}

// rawEventID extracts the first <ID> element of an AlertEvent fragment.
func rawEventID(raw []byte) string {
	i := bytes.Index(raw, []byte("<ID>"))
	if i < 0 {
		return ""
	}
	raw = raw[i+4:]
	j := bytes.IndexByte(raw, '<')
	if j < 0 {
		return ""
	}
	return string(raw[:j])
}
