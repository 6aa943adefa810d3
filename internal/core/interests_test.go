package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/gsalert/gsalert/internal/gds"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/transport"
)

// newDirectoryService builds a Hamilton service whose GDS client is aimed at
// a recording peer, so every join, leave and advertisement it sends can be
// replayed in wire order.
func newDirectoryService(t testing.TB) (*Service, *peerRecorder) {
	t.Helper()
	tr := transport.NewMemory()
	t.Cleanup(func() { _ = tr.Close() })
	rec := &peerRecorder{}
	if _, err := tr.Listen("addr:gds", transport.HandlerFunc(
		func(_ context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
			rec.mu.Lock()
			rec.got = append(rec.got, env)
			rec.mu.Unlock()
			return nil, nil
		})); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		ServerName:    "Hamilton",
		ServerAddr:    "addr:Hamilton",
		Transport:     tr,
		GDS:           gds.NewClient("Hamilton", "addr:Hamilton", "addr:gds", tr),
		Resolver:      StaticResolver{},
		ContentWarmup: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, rec
}

func setMode(t testing.TB, s *Service, m RoutingMode) {
	t.Helper()
	if err := s.SetRoutingMode(context.Background(), m); err != nil {
		t.Fatal(err)
	}
}

func subscribeAs(t testing.TB, s *Service, id, src string) {
	t.Helper()
	if err := s.SubscribeProfile(profile.NewUser(id, "alice", "Hamilton", profile.MustParse(src))); err != nil {
		t.Fatal(err)
	}
}

func unsubscribe(t testing.TB, s *Service, id string) {
	t.Helper()
	if err := s.Unsubscribe("alice", id); err != nil {
		t.Fatal(err)
	}
}

// replayGroups applies the recorded joins and leaves in wire order and
// returns the groups the directory ends up holding for this server, with
// the number of joins and leaves seen.
func replayGroups(t testing.TB, r *peerRecorder) (groups []string, joins, leaves int) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	held := map[string]bool{}
	for _, env := range r.got {
		switch env.Header.Type {
		case protocol.MsgJoinGroup:
			var j protocol.JoinGroup
			if err := protocol.Decode(env, protocol.MsgJoinGroup, &j); err != nil {
				t.Fatal(err)
			}
			held[j.Group] = true
			joins++
		case protocol.MsgLeaveGroup:
			var l protocol.LeaveGroup
			if err := protocol.Decode(env, protocol.MsgLeaveGroup, &l); err != nil {
				t.Fatal(err)
			}
			delete(held, l.Group)
			leaves++
		}
	}
	for g := range held {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	return groups, joins, leaves
}

// advertisements returns the canonical form of every advertised digest, in
// wire order.
func advertisements(t testing.TB, r *peerRecorder) []string {
	t.Helper()
	var out []string
	for _, env := range r.byType(protocol.MsgAdvertiseProfiles) {
		var ap protocol.AdvertiseProfiles
		if err := protocol.Decode(env, protocol.MsgAdvertiseProfiles, &ap); err != nil {
			t.Fatal(err)
		}
		out = append(out, strings.Join(ap.Digest, " OR "))
	}
	return out
}

func lastAdvertisement(t testing.TB, r *peerRecorder) string {
	t.Helper()
	ads := advertisements(t, r)
	if len(ads) == 0 {
		t.Fatal("nothing advertised")
	}
	return ads[len(ads)-1]
}

// Setting multicast mode a second time must not count the population twice:
// the one unsubscribe leaves the group again.
func TestSetMulticastTwiceLeaksNoGroup(t *testing.T) {
	s, rec := newDirectoryService(t)
	setMode(t, s, RouteMulticast)
	id, err := s.Subscribe("alice", profile.MustParse(`collection = "Hamilton.A"`))
	if err != nil {
		t.Fatal(err)
	}
	setMode(t, s, RouteMulticast)
	if err := s.Unsubscribe("alice", id); err != nil {
		t.Fatal(err)
	}
	if groups, joins, leaves := replayGroups(t, rec); len(groups) != 0 || joins != 1 || leaves != 1 {
		t.Fatalf("after unsubscribe the directory holds %v (%d joins, %d leaves), want nothing after 1 join and 1 leave",
			groups, joins, leaves)
	}

	// A subscribe racing the mode switch: both the subscribe and the
	// rebuild add the same profile, which must still count once.
	for i := 0; i < 50; i++ {
		var wg sync.WaitGroup
		var raced string
		wg.Add(2)
		go func() {
			defer wg.Done()
			var err error
			raced, err = s.Subscribe("alice", profile.MustParse(`collection = "Hamilton.B"`))
			if err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := s.SetRoutingMode(context.Background(), RouteMulticast); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		if groups, _, _ := replayGroups(t, rec); len(groups) != 1 || groups[0] != "coll:hamilton.b" {
			t.Fatalf("round %d: the directory holds %v while the profile is live, want [coll:hamilton.b]", i, groups)
		}
		if err := s.Unsubscribe("alice", raced); err != nil {
			t.Fatal(err)
		}
		if groups, _, _ := replayGroups(t, rec); len(groups) != 0 {
			t.Fatalf("round %d: after unsubscribe the directory still holds %v", i, groups)
		}
	}
}

// A composite subscribed in broadcast mode joins its groups when multicast
// is switched on, and leaves them again when the composite is cancelled.
func TestCompositeGroupsLeftAfterModeSwitch(t *testing.T) {
	s, rec := newDirectoryService(t)
	id, err := s.SubscribeComposite("alice",
		`SEQUENCE (collection = "Hamilton.D") THEN (collection = "Hamilton.E") WITHIN 24h`)
	if err != nil {
		t.Fatal(err)
	}
	setMode(t, s, RouteMulticast)
	if groups, _, _ := replayGroups(t, rec); fmt.Sprint(groups) != "[coll:hamilton.d coll:hamilton.e]" {
		t.Fatalf("after the switch the directory holds %v", groups)
	}
	if err := s.Unsubscribe("alice", id); err != nil {
		t.Fatal(err)
	}
	if groups, joins, leaves := replayGroups(t, rec); len(groups) != 0 {
		t.Fatalf("after unsubscribing the composite the directory holds %v (%d joins, %d leaves)", groups, joins, leaves)
	}
}

// The advertised digest depends on the current population only, not on
// the order it was subscribed in.
func TestAdvertisementIndependentOfHistory(t *testing.T) {
	const want = `collection = "Hamilton.X" OR collection = "Hamilton.Z"`
	s, rec := newDirectoryService(t)
	setMode(t, s, RouteContent)
	subscribeAs(t, s, "b-2", `collection = "Hamilton.X"`)
	subscribeAs(t, s, "a-1", `collection = "hamilton.x"`)
	subscribeAs(t, s, "z-9", `collection = "Hamilton.Z"`)
	if got := lastAdvertisement(t, rec); got != want {
		t.Fatalf("advertised %q, want %q", got, want)
	}
	unsubscribe(t, s, "z-9")
	subscribeAs(t, s, "z-9", `collection = "Hamilton.Z"`)
	if got := lastAdvertisement(t, rec); got != want {
		t.Fatalf("after re-subscribing z-9 advertised %q, want %q", got, want)
	}

	// A server that met the same population in another order advertises
	// the same digest.
	fresh, freshRec := newDirectoryService(t)
	setMode(t, fresh, RouteContent)
	subscribeAs(t, fresh, "z-9", `collection = "Hamilton.Z"`)
	subscribeAs(t, fresh, "a-1", `collection = "hamilton.x"`)
	subscribeAs(t, fresh, "b-2", `collection = "Hamilton.X"`)
	if got := lastAdvertisement(t, freshRec); got != want {
		t.Fatalf("a from-scratch build advertised %q, want %q", got, want)
	}

	t.Run("removing the last profile behind a key narrows", func(t *testing.T) {
		unsubscribe(t, s, "z-9")
		if got := lastAdvertisement(t, rec); got != `collection = "Hamilton.X"` {
			t.Fatalf("advertised %q after the last Hamilton.Z profile left", got)
		}
	})
	t.Run("removing one of two profiles behind a key sends nothing", func(t *testing.T) {
		subscribeAs(t, s, "c-3", `collection = "Hamilton.X"`)
		before := len(advertisements(t, rec))
		unsubscribe(t, s, "c-3")
		if after := len(advertisements(t, rec)); after != before {
			t.Fatalf("%d advertisements sent for a removal that leaves the key set unchanged", after-before)
		}
	})
	t.Run("setting content mode again sends nothing, a flip re-advertises", func(t *testing.T) {
		before := len(advertisements(t, rec))
		setMode(t, s, RouteContent)
		if after := len(advertisements(t, rec)); after != before {
			t.Fatalf("%d advertisements sent by setting the mode already set", after-before)
		}
		setMode(t, s, RouteMulticast)
		if n := len(rec.byType(protocol.MsgUnadvertiseProfiles)); n != 1 {
			t.Fatalf("%d withdrawals on leaving content mode, want 1", n)
		}
		setMode(t, s, RouteContent)
		if got := lastAdvertisement(t, rec); got != `collection = "Hamilton.X"` {
			t.Fatalf("advertised %q after the flip back", got)
		}
	})
}

// churnPopulation subscribes n profiles of match_churn's shape (a
// collection equality over 50 collections AND a document-level subject)
// in broadcast mode.
func churnPopulation(tb testing.TB, s *Service, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		subscribeAs(tb, s, fmt.Sprintf("pop-%d", i),
			fmt.Sprintf(`collection = "Hamilton.C%d" AND dc.Subject = "topic-%d"`, i%50, i%20000))
	}
}

// churnAllocs measures one subscribe plus unsubscribe of a profile whose
// routing key the population already holds.
func churnAllocs(t *testing.T, mode RoutingMode, n int) float64 {
	s, _ := newDirectoryService(t)
	churnPopulation(t, s, n)
	setMode(t, s, mode)
	expr := profile.MustParse(`collection = "Hamilton.C7" AND dc.Subject = "topic-new"`)
	return testing.AllocsPerRun(20, func() {
		id, err := s.Subscribe("alice", expr)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Unsubscribe("alice", id); err != nil {
			t.Fatal(err)
		}
	})
}

// Churn in content mode costs O(profile): the allocation count of one
// subscribe plus unsubscribe does not grow with the population and stays
// within twice the multicast figure. Broadcast churn does no routing work.
func TestChurnCostIndependentOfPopulation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	content1k := churnAllocs(t, RouteContent, 1000)
	content10k := churnAllocs(t, RouteContent, 10000)
	multicast := churnAllocs(t, RouteMulticast, 1000)
	broadcast := churnAllocs(t, RouteBroadcast, 1000)
	t.Logf("allocs per subscribe+unsubscribe: content %v (1k) %v (10k), multicast %v, broadcast %v",
		content1k, content10k, multicast, broadcast)
	if content1k != content10k {
		t.Errorf("content churn allocates %v at 1k profiles but %v at 10k", content1k, content10k)
	}
	if content10k > 2*multicast {
		t.Errorf("content churn allocates %v, over twice multicast's %v", content10k, multicast)
	}
	if broadcast > 24 {
		t.Errorf("broadcast churn allocates %v, want at most 24", broadcast)
	}
}

// Concurrent churn sends joins, leaves and advertisements in an order the
// directory can replay: the replayed state equals what the surviving
// population asks for, and is empty once every profile is gone.
func TestInterestSendsReplayInOrder(t *testing.T) {
	colls := []string{"Hamilton.A", "Hamilton.B", "hamilton.b", "Hamilton.C"}
	const workers, rounds = 4, 40
	churn := func(s *Service) (keep []string) {
		var wg sync.WaitGroup
		kept := make([]string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var prev string
				for i := 0; i < rounds; i++ {
					id, err := s.Subscribe("alice", profile.MustParse(
						fmt.Sprintf(`collection = %q`, colls[(w+i)%len(colls)])))
					if err != nil {
						t.Error(err)
						return
					}
					if prev != "" {
						if err := s.Unsubscribe("alice", prev); err != nil {
							t.Error(err)
							return
						}
					}
					prev = id
				}
				kept[w] = prev
			}(w)
		}
		wg.Wait()
		return kept
	}
	liveColls := func(s *Service, ids []string) map[string]bool {
		out := map[string]bool{}
		for _, id := range ids {
			p, ok := s.matcher.Get(id)
			if !ok {
				t.Fatalf("profile %s is gone", id)
			}
			cover, _ := profile.CollectionCover(p.Expr)
			for _, c := range cover {
				out[c] = true
			}
		}
		return out
	}

	t.Run("multicast", func(t *testing.T) {
		s, rec := newDirectoryService(t)
		setMode(t, s, RouteMulticast)
		kept := churn(s)
		var want []string
		for c := range liveColls(s, kept) {
			want = append(want, collGroup(c))
		}
		sort.Strings(want)
		want = slices.Compact(want)
		if got, _, _ := replayGroups(t, rec); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("replayed groups %v, want %v", got, want)
		}
		for _, id := range kept {
			unsubscribe(t, s, id)
		}
		if got, _, _ := replayGroups(t, rec); len(got) != 0 {
			t.Fatalf("every profile is gone but the directory holds %v", got)
		}
	})
	t.Run("content", func(t *testing.T) {
		s, rec := newDirectoryService(t)
		setMode(t, s, RouteContent)
		kept := churn(s)
		var ds []profile.Digest
		for _, id := range kept {
			p, _ := s.matcher.Get(id)
			ds = append(ds, profile.DigestOf(p.Expr))
		}
		// Mutually covering conjunctions resolve to the one that sorts
		// first, as a from-scratch build over sorted keys does.
		var conjs []string
		for _, d := range ds {
			conjs = append(conjs, d.Strings()...)
		}
		sort.Strings(conjs)
		want, err := profile.ParseDigest(conjs)
		if err != nil {
			t.Fatal(err)
		}
		if got := lastAdvertisement(t, rec); got != want.Canonical() {
			t.Fatalf("last advertisement %q, want %q", got, want.Canonical())
		}
		for _, id := range kept {
			unsubscribe(t, s, id)
		}
		if got := lastAdvertisement(t, rec); got != "" {
			t.Fatalf("every profile is gone but the last advertisement is %q", got)
		}
	})
}

// BenchmarkContentUnsubscribe times one content-mode unsubscribe against a
// population of match_churn's shape; the matching subscribe runs outside
// the timer.
func BenchmarkContentUnsubscribe(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			s, _ := newDirectoryService(b)
			churnPopulation(b, s, n)
			setMode(b, s, RouteContent)
			expr := profile.MustParse(`collection = "Hamilton.C7" AND dc.Subject = "topic-new"`)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				id, err := s.Subscribe("alice", expr)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := s.Unsubscribe("alice", id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
