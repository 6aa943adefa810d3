// Package transport carries protocol envelopes between nodes.
//
// Two implementations are provided. Memory is a deterministic simulated
// network used by the test suite and the experiment harness: it supports
// partitions, down nodes, fixed virtual hop latency and message accounting,
// and delivers synchronously in the caller's goroutine so experiments are
// reproducible. HTTP runs the same envelopes over real sockets via stdlib
// net/http and backs the runnable examples and command line tools.
//
// There is one fault path for message loss and added latency: FaultInjector,
// a decorator over any Transport with seeded, scoped drop/latency rules.
package transport

import (
	"context"
	"errors"
	"fmt"
	"io"

	"github.com/gsalert/gsalert/internal/protocol"
)

// Handler processes one incoming envelope and returns a response envelope
// (which may be nil for one-way messages).
type Handler interface {
	Handle(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error)

// Handle implements Handler.
func (f HandlerFunc) Handle(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
	return f(ctx, env)
}

// Transport sends envelopes to addresses and binds handlers to addresses.
type Transport interface {
	// Listen binds h to addr. The returned closer unbinds it.
	Listen(addr string, h Handler) (io.Closer, error)
	// Send delivers env to addr and returns the peer's response (nil for
	// one-way messages). Implementations must not retain env after return.
	Send(ctx context.Context, addr string, env *protocol.Envelope) (*protocol.Envelope, error)
	// Close releases all listeners and in-flight resources.
	Close() error
}

// Errors shared by transport implementations.
var (
	ErrUnreachable   = errors.New("transport: address unreachable")
	ErrPartitioned   = errors.New("transport: link partitioned")
	ErrClosed        = errors.New("transport: closed")
	ErrAlreadyBound  = errors.New("transport: address already bound")
	ErrNotBound      = errors.New("transport: address not bound")
	ErrRemoteFailure = errors.New("transport: remote handler failure")
)

// SendExpect sends env and decodes the response into dst, translating error
// envelopes into Go errors. want names the expected response type.
func SendExpect(ctx context.Context, tr Transport, addr string, env *protocol.Envelope, want protocol.MessageType, dst any) error {
	resp, err := tr.Send(ctx, addr, env)
	if err != nil {
		return err
	}
	if err := protocol.AsError(resp); err != nil {
		return fmt.Errorf("%w: %w", ErrRemoteFailure, err)
	}
	if dst == nil {
		return nil
	}
	return protocol.Decode(resp, want, dst)
}

// SendOneWay sends env, accepting either a nil response or an ack; error
// envelopes are translated into Go errors.
func SendOneWay(ctx context.Context, tr Transport, addr string, env *protocol.Envelope) error {
	resp, err := tr.Send(ctx, addr, env)
	if err != nil {
		return err
	}
	if err := protocol.AsError(resp); err != nil {
		return fmt.Errorf("%w: %w", ErrRemoteFailure, err)
	}
	return nil
}
