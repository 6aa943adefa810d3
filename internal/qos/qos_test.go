package qos

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestClassStringParseRoundTrip(t *testing.T) {
	for _, c := range []Class{ClassRealtime, ClassNormal, ClassBulk} {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	if c, err := ParseClass(""); err != nil || c != ClassNormal {
		t.Errorf("empty class = %v, %v, want normal", c, err)
	}
	if _, err := ParseClass("vip"); err == nil {
		t.Error("unknown class accepted")
	}
	var zero Class
	if zero != ClassNormal {
		t.Error("zero value is not ClassNormal")
	}
}

func TestControllerBurstOnly(t *testing.T) {
	// Rate 0: the bucket never refills, so exactly burst tokens exist —
	// the deterministic mode the simulations rely on.
	c := NewController(Config{SubscriberBurst: 3})
	for i := 0; i < 3; i++ {
		if !c.AllowSubscriber("u") {
			t.Fatalf("take %d refused within burst", i)
		}
	}
	if c.AllowSubscriber("u") {
		t.Error("take beyond burst admitted")
	}
	// Other subscribers have independent buckets.
	if !c.AllowSubscriber("v") {
		t.Error("fresh subscriber refused")
	}
}

func TestControllerRefill(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewController(Config{
		SubscriberRate:  2, // 2 tokens/sec
		SubscriberBurst: 2,
		Clock:           func() time.Time { return now },
	})
	if !c.AllowSubscriber("u") || !c.AllowSubscriber("u") {
		t.Fatal("burst refused")
	}
	if c.AllowSubscriber("u") {
		t.Fatal("empty bucket admitted")
	}
	now = now.Add(500 * time.Millisecond) // refills 1 token
	if !c.AllowSubscriber("u") {
		t.Error("refilled token refused")
	}
	if c.AllowSubscriber("u") {
		t.Error("second take admitted after a 1-token refill")
	}
	// Refill clamps at burst.
	now = now.Add(time.Hour)
	if !c.AllowSubscriber("u") || !c.AllowSubscriber("u") {
		t.Error("burst not restored after long idle")
	}
	if c.AllowSubscriber("u") {
		t.Error("refill exceeded burst")
	}
}

func TestControllerDisabledDimensions(t *testing.T) {
	c := NewController(Config{}) // both bursts zero: unlimited
	for i := 0; i < 1000; i++ {
		if !c.AllowSubscriber("u") || !c.AllowCollection("H.C") {
			t.Fatal("disabled quota refused traffic")
		}
	}
}

func TestControllerCollectionIndependent(t *testing.T) {
	c := NewController(Config{CollectionBurst: 1})
	if !c.AllowCollection("H.A") {
		t.Fatal("first take refused")
	}
	if c.AllowCollection("H.A") {
		t.Error("over-quota collection admitted")
	}
	if !c.AllowCollection("H.B") {
		t.Error("independent collection refused")
	}
}

func TestControllerConcurrentAccounting(t *testing.T) {
	// Across many goroutines hammering one subscriber, exactly burst tokens
	// may be granted (rate 0 = no refill).
	const burst, workers, tries = 64, 8, 100
	c := NewController(Config{SubscriberBurst: burst})
	var total int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := int64(0)
			for i := 0; i < tries; i++ {
				if c.AllowSubscriber("hot") {
					n++
				}
				// Other keys must not be affected by the hot key's exhaustion.
				if !c.AllowSubscriber(fmt.Sprintf("cold-%d-%d", w, i)) {
					t.Error("cold subscriber refused its first token")
				}
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	if total != burst {
		t.Errorf("granted %d tokens for burst %d", total, burst)
	}
}

func TestSchedulerWeightedShares(t *testing.T) {
	// With every class saturated, one recharge cycle serves items in weight
	// proportion.
	s := NewScheduler()
	counts := map[Class]int{}
	allReady := func(Class) bool { return true }
	for i := 0; i < 13*10; i++ { // 10 full cycles of 8+4+1
		c, ok := s.Pick(allReady)
		if !ok {
			t.Fatal("saturated scheduler reported nothing ready")
		}
		counts[c]++
	}
	if counts[ClassRealtime] != 80 || counts[ClassNormal] != 40 || counts[ClassBulk] != 10 {
		t.Errorf("shares = %v, want 80/40/10", counts)
	}
}

func TestSchedulerPriorityWithinCycle(t *testing.T) {
	s := NewScheduler()
	// Realtime ready: always served first while it has credit.
	got, ok := s.Pick(func(c Class) bool { return true })
	if !ok || got != ClassRealtime {
		t.Errorf("first pick = %v, %v", got, ok)
	}
	// Only bulk ready: bulk is served even though it is lowest priority.
	got, ok = s.Pick(func(c Class) bool { return c == ClassBulk })
	if !ok || got != ClassBulk {
		t.Errorf("bulk-only pick = %v, %v", got, ok)
	}
}

func TestSchedulerBulkNotStarved(t *testing.T) {
	// Under an unbounded realtime flood, bulk still gets its weight share:
	// count bulk services over many picks with both classes ready.
	s := NewScheduler()
	ready := func(c Class) bool { return c == ClassRealtime || c == ClassBulk }
	bulk := 0
	const picks = 900 // 100 cycles of 8 rt + 1 bulk
	for i := 0; i < picks; i++ {
		c, ok := s.Pick(ready)
		if !ok {
			t.Fatal("nothing ready")
		}
		if c == ClassBulk {
			bulk++
		}
	}
	if bulk != 100 {
		t.Errorf("bulk served %d of %d picks, want 100", bulk, picks)
	}
}

func TestSchedulerIdle(t *testing.T) {
	s := NewScheduler()
	if _, ok := s.Pick(func(Class) bool { return false }); ok {
		t.Error("idle scheduler reported work")
	}
	// Idle picks must not wedge the credits: work afterwards is served.
	if c, ok := s.Pick(func(c Class) bool { return c == ClassNormal }); !ok || c != ClassNormal {
		t.Errorf("post-idle pick = %v, %v", c, ok)
	}
}

func TestSchedulerZeroWeightsDefaulted(t *testing.T) {
	// A fresh scheduler starts every class on a full DefaultWeights credit.
	s := NewScheduler()
	for c, w := range DefaultWeights {
		if got := s.Credits()[c]; got != int64(w) {
			t.Errorf("class %v credit = %d, want default weight %d", Class(c), got, w)
		}
	}
}

func TestBucketSetEviction(t *testing.T) {
	// The bucket maps are bounded: churning far more keys than the cap must
	// not accrete one bucket per key forever, and an evicted key simply
	// starts a fresh (full) bucket.
	now := time.Unix(1000, 0)
	c := NewController(Config{
		SubscriberBurst: 1,
		Clock:           func() time.Time { return now },
	})
	total := bucketShards*maxBucketsPerShard + 5000
	for i := 0; i < total; i++ {
		c.AllowSubscriber(fmt.Sprintf("churn-%d", i))
		if i == total/2 {
			// Age the first half past the idle horizon so the cap sweep has
			// something stale to reclaim.
			now = now.Add(bucketIdleEvict + time.Minute)
		}
	}
	held := 0
	for i := range c.subscribers.shards {
		sh := &c.subscribers.shards[i]
		sh.mu.Lock()
		held += len(sh.m)
		sh.mu.Unlock()
	}
	if held > bucketShards*maxBucketsPerShard {
		t.Errorf("bucket maps hold %d entries after churning %d keys (cap %d)",
			held, total, bucketShards*maxBucketsPerShard)
	}
	// An evicted key is treated as new: full bucket again (errs toward
	// delivering, never toward phantom debt).
	if !c.AllowSubscriber("churn-0") {
		t.Error("evicted key did not restart with a full bucket")
	}
}
