package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/qos"
)

// TestPublishAppendsInOneObserverCall: a publish hands its admitted matches
// to the pipeline in chunks of delivery.EnqueueChunk, so the mailbox
// observer (the replication stream) sees one call per chunk, not one per
// notification.
func TestPublishAppendsInOneObserverCall(t *testing.T) {
	for _, tc := range []struct {
		clients int
		want    []int // appends per observer call
	}{
		{5, []int{5}},
		{delivery.EnqueueChunk + 5, []int{delivery.EnqueueChunk, 5}},
	} {
		t.Run(fmt.Sprintf("clients=%d", tc.clients), func(t *testing.T) {
			s := qosService(t, nil)
			for c := 0; c < tc.clients; c++ {
				subscribeClass(t, s, fmt.Sprintf("c%02d", c), qos.ClassNormal)
			}
			var mu sync.Mutex
			var calls []int
			s.Delivery().SetObserver(func(ops []delivery.MailboxOp) {
				appends := 0
				for _, op := range ops {
					if !op.Ack {
						appends++
					}
				}
				mu.Lock()
				calls = append(calls, appends)
				mu.Unlock()
			})
			publishAdds(t, s, 1, "one") // every client is detached: no acks
			mu.Lock()
			defer mu.Unlock()
			if fmt.Sprint(calls) != fmt.Sprint(tc.want) {
				t.Errorf("observer calls carried %v appends, want %v", calls, tc.want)
			}
		})
	}
}

// TestChunkedEnqueueKeepsMatchOrder: with QoS on, admitted matches wait in
// the chunk while a deferred one goes straight to the mailbox, so the chunk
// must be handed over first; otherwise the deferral would take an earlier
// mailbox sequence than the matches before it.
func TestChunkedEnqueueKeepsMatchOrder(t *testing.T) {
	s := qosService(t, qos.NewController(qos.Config{SubscriberBurst: 1}))
	// Matches arrive in profile-ID order: bypass, admit (the one token),
	// defer, bypass, defer.
	classes := []qos.Class{qos.ClassRealtime, qos.ClassNormal, qos.ClassNormal, qos.ClassRealtime, qos.ClassNormal}
	for i, class := range classes {
		p := profile.NewUser(fmt.Sprintf("q%d", i), "c", s.Name(),
			profile.MustParse(`collection = "Hamilton.C" AND event.type = "documents-added"`))
		p.Class = class
		if err := s.SubscribeProfile(p); err != nil {
			t.Fatal(err)
		}
	}
	publishAdds(t, s, 1, "mix") // "c" is detached: every notification stays in its mailbox
	if st := s.Stats(); st.QoSAdmitted != 3 || st.QoSDeferred != 2 {
		t.Fatalf("admitted %d, deferred %d; want 3 and 2", st.QoSAdmitted, st.QoSDeferred)
	}
	var got []string
	for _, mb := range s.Delivery().ExportMailboxes() {
		if mb.Client == "c" {
			for _, e := range mb.Entries {
				got = append(got, fmt.Sprintf("%d:%s", e.Seq, e.N.ProfileID))
			}
		}
	}
	if want := "[1:q0 2:q1 3:q2 4:q3 5:q4]"; fmt.Sprint(got) != want {
		t.Errorf("mailbox (seq:profile) = %v, want %s", got, want)
	}
}
