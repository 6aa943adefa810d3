// Package replica implements primary/standby replication for alerting
// servers, so the delivery guarantees the per-node subsystems provide —
// durable WAL mailboxes, composite subscriptions, reconnect drain — survive
// the loss of a whole server, not just a process restart (experiment E14).
//
// A Primary attaches to a serving core.Service and streams its replicable
// state changes to one Standby over the ordinary transport as repl.*
// envelopes:
//
//	profile (un)subscriptions  — user, composite wrapper, auxiliary
//	mailbox WAL activity       — appends, delivery acks, cap evictions
//	dedup admissions           — event IDs the primary already processed
//
// Every stream envelope carries a monotonic sequence and is acknowledged
// synchronously by the standby. Hooks group-commit: one envelope carries
// every record queued while the previous one was in flight, and no hook
// returns before the envelope holding its record is acknowledged
// (zero-loss: nothing a caller saw happen can be lost by a primary crash). A standby joins — or rejoins after a gap,
// apply failure or restart — by requesting a full MsgReplSnapshot
// (subscriptions, mailbox contents, dedup window, ID counter) and then
// consumes the stream from the snapshot's position; records at or below it
// are duplicates and skipped (anti-entropy catch-up).
//
// Promotion (Standby.Promote, or a MsgReplPromote envelope) turns the
// passive standby into the serving primary: it re-registers the inherited
// server name with its GDS node — name resolution, broadcasts and
// receptionist traffic now reach the standby's address — and re-issues the
// routing-mode state for the inherited profile population (multicast group
// joins, content-digest advertisements). Inherited mailbox contents rest
// parked until their clients re-attach, at which point the ordinary
// reconnect drain delivers them.
//
// Not replicated: collection stores (rebuild sources live outside the
// alerting state) and in-flight composite window state (a sequence opened
// before the failover completes only from primitives the standby sees
// itself). Both are documented in docs/REPLICATION.md.
package replica

import (
	"fmt"
	"time"

	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/qos"
)

// Op values of the profile stream.
const (
	opSubscribe   = "subscribe"
	opUnsubscribe = "unsubscribe"
)

// Kind values of the WAL stream.
const (
	kindAppend = "append"
	kindAck    = "ack"
	kindDedup  = "dedup"
)

// mismatchErr reports a cross-wired replication pair.
func mismatchErr(want, got string) error {
	return fmt.Errorf("replica: standby stands by for %q, primary is %q", got, want)
}

// exportQoSBuckets renders a service's current token-bucket levels for the
// wire (nil when no QoS controller is installed). Shipped in snapshots and
// heartbeat responses so a promoted standby enforces the quotas the
// primary had already charged instead of handing out fresh bursts.
func exportQoSBuckets(svc *core.Service) []protocol.ReplQoSBucket {
	ctrl := svc.QoS()
	if ctrl == nil {
		return nil
	}
	states := ctrl.ExportBuckets()
	out := make([]protocol.ReplQoSBucket, 0, len(states))
	for _, st := range states {
		b := protocol.ReplQoSBucket{Dimension: st.Dimension, Key: st.Key, Tokens: st.Tokens}
		if !st.Last.IsZero() {
			b.LastUnixNano = st.Last.UnixNano()
		}
		out = append(out, b)
	}
	return out
}

// applyQoSBuckets installs replicated bucket levels on a service's QoS
// controller; silently a no-op when either side has QoS off.
func applyQoSBuckets(svc *core.Service, buckets []protocol.ReplQoSBucket) {
	ctrl := svc.QoS()
	if ctrl == nil || len(buckets) == 0 {
		return
	}
	states := make([]qos.BucketState, 0, len(buckets))
	for _, b := range buckets {
		st := qos.BucketState{Dimension: b.Dimension, Key: b.Key, Tokens: b.Tokens}
		if b.LastUnixNano != 0 {
			st.Last = time.Unix(0, b.LastUnixNano)
		}
		states = append(states, st)
	}
	ctrl.ApplyBuckets(states)
}
