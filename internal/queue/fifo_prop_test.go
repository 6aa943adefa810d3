package queue

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/transport"
)

// Property: deliveries stay FIFO per destination under link-level
// transport faults. The queue's contract is partition recovery (package
// doc): when a destination's link is down, every send to it fails; when it
// heals, the backlog drains oldest-first. Because link faults fail or pass
// a destination's traffic wholesale — never one message out of the middle
// — the per-destination success order must equal the per-destination
// enqueue order, across any pattern of partitions between flushes.
//
// The faults come from a real transport.FaultInjector wrapping the memory
// transport (drop=1 rules scoped To one destination — the chaos harness's
// link-fault shape), not from a stubbed error: the property holds against
// the same fault surface the E16 soak drives.
func TestQueueFIFOPerDestinationUnderLinkFaults(t *testing.T) {
	const (
		dests  = 5
		items  = 200
		rounds = 400
	)
	rng := rand.New(rand.NewSource(16))
	mem := transport.NewMemory()
	defer mem.Close()
	inj := transport.NewFaultInjector(mem, 16)

	delivered := make(map[string][]string)
	for d := 0; d < dests; d++ {
		dest := fmt.Sprintf("gs://D%d", d)
		if _, err := mem.Listen(dest, transport.HandlerFunc(
			func(_ context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
				var id string
				if err := protocol.Decode(env, protocol.MsgPing, &id); err != nil {
					return nil, err
				}
				delivered[dest] = append(delivered[dest], id)
				return nil, nil
			})); err != nil {
			t.Fatal(err)
		}
	}

	sender := func(ctx context.Context, it *Item) error {
		env, err := protocol.NewEnvelope("q", protocol.MsgPing, it.ID)
		if err != nil {
			return err
		}
		_, err = inj.Send(ctx, it.Dest, env)
		return err
	}
	clock := time.Unix(0, 0)
	q, err := New(sender, WithClock(func() time.Time { return clock }))
	if err != nil {
		t.Fatal(err)
	}

	enqueued := make(map[string][]string)
	for i := 0; i < items; i++ {
		dest := fmt.Sprintf("gs://D%d", rng.Intn(dests))
		id := fmt.Sprintf("item-%03d", i)
		q.Add(id, dest, nil)
		enqueued[dest] = append(enqueued[dest], id)
	}

	ctx := context.Background()
	for r := 0; r < rounds && q.Len() > 0; r++ {
		// A random subset of destinations is partitioned this round.
		inj.ClearRules()
		for d := 0; d < dests; d++ {
			if rng.Intn(2) == 0 {
				inj.AddRule(transport.FaultRule{To: fmt.Sprintf("gs://D%d", d), DropRate: 1})
			}
		}
		q.Flush(ctx, true)
	}
	inj.ClearRules()
	q.Flush(ctx, true)

	if q.Len() != 0 {
		t.Fatalf("%d items still queued after healing every link", q.Len())
	}
	st := q.Stats()
	if st.Succeeded != items {
		t.Fatalf("succeeded %d of %d", st.Succeeded, items)
	}
	if st.Failed == 0 || inj.Stats().Dropped == 0 {
		t.Fatalf("no send ever failed (failed=%d, injector dropped=%d) — the fault pattern is vacuous",
			st.Failed, inj.Stats().Dropped)
	}
	for dest, want := range enqueued {
		got := delivered[dest]
		if len(got) != len(want) {
			t.Fatalf("%s delivered %d of %d items", dest, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s delivery %d = %s, want %s (FIFO violated)\ngot: %v\nwant: %v",
					dest, i, got[i], want[i], got, want)
			}
		}
	}
}
