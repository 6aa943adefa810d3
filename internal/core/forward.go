package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/logging"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/transport"
)

// Server-to-server traffic (forwarded events, auxiliary-profile installs and
// cancels) waits where notifications wait (paper §7: "delayed until the
// network connection is reestablished"): each destination server is a
// mailbox in the delivery pipeline, keyed forwardPrefix+server, with a sink
// attached that sends what the mailbox holds. So forwards inherit the WAL
// under Dir, the replication stream, MailboxCap with counted eviction,
// per-mailbox FIFO and the retry loop. The sink is attached at the first
// park or by ResumeForwards, and no client can detach it. An entry is a
// Notification whose ProfileID is the aux-profile ID, which names the super-
// and the sub-collection, whose Composite is the message type, and whose
// Event is the forwarded event.

// forwardPrefix starts the mailbox key of a destination server; no client
// may subscribe or attach a sink under it.
const forwardPrefix = "gs-forward:"

func isForwardKey(client string) bool { return strings.HasPrefix(client, forwardPrefix) }

// forwardOp is the mailbox entry for one server-to-server message; ev is nil
// for installs and cancels.
func forwardOp(typ protocol.MessageType, auxID string, ev *event.Event) Notification {
	return Notification{ProfileID: auxID, Composite: string(typ), Event: ev}
}

// parseAuxProfileID inverts auxProfileID.
func parseAuxProfileID(id string) (super, sub event.QName, err error) {
	superName, subName, ok := strings.Cut(strings.TrimPrefix(id, "aux:"), ">")
	if !ok {
		return super, sub, fmt.Errorf("core: malformed aux profile ID %q", id)
	}
	if super, err = event.ParseQName(superName); err == nil {
		sub, err = event.ParseQName(subName)
	}
	return super, sub, err
}

// forwardEnvelope renders a mailbox entry as the envelope it stands for and
// names the server it goes to: the super-collection's host for a forwarded
// event, the sub-collection's host for an install or a cancel.
func (s *Service) forwardEnvelope(n Notification) (dest string, env *protocol.Envelope, err error) {
	super, sub, err := parseAuxProfileID(n.ProfileID)
	if err != nil {
		return "", nil, err
	}
	typ := protocol.MessageType(n.Composite)
	var payload any
	var raw []byte
	dest = sub.Host
	switch {
	case typ == protocol.MsgEvent && n.Event != nil:
		raw, err = n.Event.MarshalXMLBytes()
		payload, dest = &protocol.EventPayload{TransformTo: super.String(), Event: protocol.Wrap(raw)}, super.Host
	case typ == protocol.MsgForwardProfile:
		raw, err = profile.NewAuxiliary(n.ProfileID, super, sub).MarshalXMLBytes()
		payload = &protocol.ForwardProfile{Profile: protocol.Wrap(raw)}
	case typ == protocol.MsgCancelProfile:
		payload = &protocol.CancelProfile{ProfileID: n.ProfileID}
	default:
		err = fmt.Errorf("core: unknown forward op %q", n.Composite)
	}
	if err == nil {
		env, err = protocol.NewEnvelope(s.name, typ, payload)
	}
	if err != nil {
		return "", nil, err
	}
	env.Header.To = dest
	return dest, env, nil
}

// sendOrQueue sends one server-to-server message inline and parks it in the
// destination's mailbox when the send fails, or when earlier traffic to that
// destination still waits there: a destination is FIFO, so a re-install
// cannot overtake the cancel a partition held back.
func (s *Service) sendOrQueue(ctx context.Context, n Notification) {
	dest, env, err := s.forwardEnvelope(n)
	if err != nil {
		return // an ID or event that cannot be rendered; nothing to send
	}
	n.Client = forwardPrefix + dest
	if s.delivery.Backlog(n.Client) == 0 {
		if s.sendToServer(ctx, dest, env) == nil {
			return
		}
		// The mailbox is empty, so attaching its sink sends nothing yet.
		s.delivery.Attach(n.Client, s.forwarder(dest, s.delivery.RetryInterval()))
	}
	s.stats.forwardingFailures.Inc()
	if err := s.delivery.Park(n); err != nil {
		s.log.Warn("forward dropped", logging.String("to", dest), logging.String("error", err.Error()))
	}
}

// forwarder is a destination mailbox's sink. It runs on a delivery shard's
// worker, so a destination that is down must not hold the worker on every
// retry: after a failed send the sink fails each batch at once, without a
// lookup or a send, for a backoff that doubles from the retry interval to
// 32 of them, and the try that ends a backoff gets an eighth of it as its
// deadline. A down destination so holds the worker at most a ninth of the
// time, while a destination that is up gets the whole retry interval per
// send. A failed batch is resent whole: installs and cancels are
// idempotent, and the receiver's dedup drops a re-forwarded event's
// transform, whose ID is deterministic. The pipeline parks any batch behind
// a failed one, so the destination stays FIFO. A sink starts with the given
// backoff behind it: the retry interval after a failed inline send, none
// on ResumeForwards.
func (s *Service) forwarder(dest string, backoff time.Duration) delivery.Deliverer {
	var next time.Time
	return func(_ string, batch []Notification) error {
		if time.Now().Before(next) {
			return errors.New("core: " + dest + " is backing off")
		}
		deadline := s.delivery.RetryInterval()
		if backoff > 0 {
			deadline = min(deadline, backoff/8)
		}
		for _, n := range batch {
			if _, env, err := s.forwardEnvelope(n); err == nil {
				ctx, cancel := context.WithTimeout(context.Background(), deadline)
				err = s.sendToServer(ctx, dest, env)
				cancel()
				if err != nil {
					backoff = min(max(2*backoff, s.delivery.RetryInterval()), 32*s.delivery.RetryInterval())
					next = time.Now().Add(backoff)
					return err
				}
			}
		}
		backoff = 0
		return nil
	}
}

// ResumeForwards attaches the sink of every destination mailbox the
// pipeline holds, which sends what waits there. Only the serving role may
// call it: New does not, because a standby restarted on its mailbox
// directory holds replicated forwards that belong to its primary. A
// primary calls it for mailboxes recovered from the WAL, a promoted
// standby for the ones it inherited, and simulations to retry after
// healing a partition.
func (s *Service) ResumeForwards() {
	for _, mb := range s.delivery.ExportMailboxes() {
		if dest, ok := strings.CutPrefix(mb.Client, forwardPrefix); ok {
			s.delivery.Attach(mb.Client, s.forwarder(dest, 0))
		}
	}
}

// PendingForwards counts the server-to-server messages waiting, parked or
// in flight, in destination mailboxes.
func (s *Service) PendingForwards() (n int) {
	for _, mb := range s.delivery.ExportMailboxes() {
		if isForwardKey(mb.Client) {
			n += len(mb.Entries)
		}
	}
	return n
}

// sendToServer resolves a server name and delivers env, reporting whether
// the message must wait for a retry. A refusal by the destination is final:
// resending cannot change the answer, and waiting would hold up everything
// parked behind the message.
func (s *Service) sendToServer(ctx context.Context, destServer string, env *protocol.Envelope) error {
	if s.resolver == nil {
		return fmt.Errorf("core: no resolver configured on %s", s.name)
	}
	addr, err := s.resolver.Resolve(ctx, destServer)
	if err != nil {
		return err
	}
	err = transport.SendOneWay(ctx, s.tr, addr, env)
	if errors.Is(err, transport.ErrRemoteFailure) {
		s.log.Warn("forward refused", logging.String("to", destServer), logging.String("error", err.Error()))
		return nil
	}
	if err != nil && s.gdsCli != nil {
		s.gdsCli.InvalidateCache(destServer)
	}
	return err
}

// Retry returns a value whose Start does nothing. It exists so that callers
// that start a retry loop, such as bench/gsbench, still build: the delivery
// pipeline's retry loop resends parked forwards and needs no starting.
func (s *Service) Retry() retryStub { return retryStub{} }

type retryStub struct{}

// Start does nothing; see Service.Retry.
func (retryStub) Start(time.Duration) error { return nil }
