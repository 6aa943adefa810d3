package sim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/replica"
	"github.com/gsalert/gsalert/internal/transport"
)

// TestPromotionConcurrentWithQoSAndFlush composes the three subsystems the
// chaos soak stresses sequentially — replica promotion, QoS admission and
// delivery flushing — into one genuinely concurrent run for the race
// detector: publisher goroutines drive PublishBuild (admission-controlled)
// against the primary while a flusher goroutine drains the delivery
// pipeline, and mid-stream the primary is taken off the network and the
// standby promoted. Run under -race (the Makefile's race/chaos targets and
// the CI chaos-soak job do); the assertions are deliberately coarse —
// no errors on the surviving paths, the promotion completed, the standby
// flushes — because the interesting output is the race detector's.
func TestPromotionConcurrentWithQoSAndFlush(t *testing.T) {
	ctx := context.Background()
	tr := transport.NewMemory()
	defer tr.Close()
	inj := transport.NewFaultInjector(tr, 77)

	mkSvc := func(name, addr string) *core.Service {
		svc, err := core.New(core.Config{ServerName: name, ServerAddr: addr, Transport: inj})
		if err != nil {
			t.Fatal(err)
		}
		svc.SetQoS(qos.NewController(qos.Config{
			SubscriberRate: 500, SubscriberBurst: 50,
			CollectionRate: 2000, CollectionBurst: 200,
		}))
		return svc
	}
	primary := mkSvc("P", "gs://p")
	defer primary.Close()
	standby := mkSvc("P", "gs://pb")
	defer standby.Close()

	for i, class := range []qos.Class{qos.ClassRealtime, qos.ClassNormal, qos.ClassBulk} {
		p := profile.NewUser(fmt.Sprintf("race-p%d", i), fmt.Sprintf("u%d", i), "P",
			profile.MustParse(`collection = "P.C" AND event.type = "documents-added"`))
		p.Class = class
		if err := primary.SubscribeProfile(p); err != nil {
			t.Fatal(err)
		}
		primary.RegisterNotifier(fmt.Sprintf("u%d", i), core.NotifierFunc(func(core.Notification) {}))
	}

	prim, err := replica.NewPrimary(replica.PrimaryConfig{
		Service: primary, Transport: inj, ListenAddr: "repl://p",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	recv, err := replica.NewStandby(replica.StandbyConfig{
		Service: standby, Transport: inj,
		ListenAddr: "repl://pb", PrimaryAddr: "repl://p",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	if err := recv.Join(ctx); err != nil {
		t.Fatal(err)
	}

	const (
		publishers   = 4
		eventsPerPub = 150
		killAfter    = 100 // total events published before the kill fires
	)
	var (
		published int64
		wg        sync.WaitGroup
		stopFlush = make(chan struct{})
		flushDone = make(chan struct{})
	)

	// The flusher: concurrent delivery drains against the publishers'
	// enqueues, on both services. It runs until the publishers finish, so
	// it lives outside the publisher wait group.
	go func() {
		defer close(flushDone)
		for {
			select {
			case <-stopFlush:
				return
			default:
				_ = primary.DrainDeliveries(ctx)
				_ = standby.DrainDeliveries(ctx)
			}
		}
	}()

	// The killer: once enough events are in flight, the primary drops off
	// the network and the standby promotes — concurrently with admission
	// and flushing.
	promoteErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for atomic.LoadInt64(&published) < killAfter {
			time.Sleep(time.Millisecond)
		}
		tr.SetNodeDown("gs://p", true)
		promoteErr <- recv.Promote(ctx, 0)
	}()

	for g := 0; g < publishers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < eventsPerPub; i++ {
				ev := event.New(fmt.Sprintf("race-ev-%d-%d", g, i), event.TypeDocumentsAdded,
					event.QName{Host: "P", Collection: "C"}, 1, nil, eventTimeRace())
				// Publish errors after the kill are expected (the stream
				// send path fails); data races are what the test is for.
				_, _ = primary.PublishBuild(ctx, &collection.BuildResult{Events: []*event.Event{ev}})
				atomic.AddInt64(&published, 1)
			}
		}(g)
	}

	wg.Wait()
	close(stopFlush)
	<-flushDone
	if err := <-promoteErr; err != nil {
		t.Fatalf("promote: %v", err)
	}
	if !recv.Promoted() {
		t.Fatalf("standby did not promote")
	}
	if err := standby.DrainDeliveries(ctx); err != nil {
		t.Fatalf("standby drain after promotion: %v", err)
	}
	if got := atomic.LoadInt64(&published); got != publishers*eventsPerPub {
		t.Fatalf("published %d of %d", got, publishers*eventsPerPub)
	}
}

func eventTimeRace() time.Time { return time.Unix(1_120_000_000, 0) }
