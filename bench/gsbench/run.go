package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/event"
)

// runConfig is one benchmark run of one workload.
type runConfig struct {
	sp      spec
	seed    int64
	seconds float64 // measured time; the phases share it out
	trace   bool
	outDir  string
	setups  int // timed set-ups; setup_s is their median
	reps    int // repetitions of {saturate, paced, churn}
	log     io.Writer
}

// Shares of the measured time. The rest of a run (set-up, ≤1 s warm-up,
// drain and verification) is not measured.
const (
	saturateShare = 0.30
	pacedShare    = 0.55
	churnShare    = 0.15

	// A traced run measures one untraced and one traced paced repetition
	// (their ratio is the tracing overhead) and one traced churn repetition.
	tracedPacedShare = 0.40
	tracedChurnShare = 0.20

	// A paced repetition is unsustainable when more than maxLateShare of its
	// events reach a publisher more than maxLateness after they were due: a
	// rate the system cannot hold makes every later event late, a stall of
	// the machine only the few behind it.
	maxLateness  = 50 * time.Millisecond
	maxLateShare = 0.25

	// Set-ups repeat until they have taken setupBudget together (at least
	// cfg.setups, at most maxSetups times), so that cheap set-ups are
	// measured as steadily as dear ones.
	setupBudget = 1500 * time.Millisecond
	maxSetups   = 15
	maxDrain    = time.Second
)

type result struct {
	workload  string
	metrics   []metric // BENCHMARK.json's: end_to_end, or per_layer in a traced run
	unbounded []metric // printed for the reader only
	attempted int64
	failed    int64
	problems  []string
	spans     []spanRec
	tracePath string
	wall      time.Duration
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// run is the state of one workload run.
type run struct {
	cfg    runConfig
	ctx    context.Context
	g      *gen
	rec    *recorder
	tracer *tracer
	c      *cluster
	res    *result

	setups      int    // timed set-ups actually run
	published   []bool // per sequence number: publish returned without error
	publishErrs atomic.Int64
	attempts    atomic.Int64
	churnOps    atomic.Int64
	churnErrs   atomic.Int64
}

func runWorkload(cfg runConfig) (*result, error) {
	started := time.Now()
	r := &run{cfg: cfg, ctx: context.Background(), res: &result{workload: cfg.sp.name}}
	var err error
	if r.g, err = newGen(cfg.sp, cfg.seed, originName); err != nil {
		return nil, err
	}
	if cfg.trace {
		r.tracer = newTracer()
	}
	defer func() {
		if r.c != nil {
			r.c.close()
		}
	}()

	setupS, heapMB, err := r.setup()
	if err != nil {
		return nil, err
	}
	r.warmup()

	if cfg.trace {
		err = r.tracedPhases()
	} else {
		err = r.measuredPhases(setupS, heapMB)
	}
	if err != nil {
		return nil, err
	}
	r.verify()
	if cfg.trace {
		path, err := r.tracer.writeSpans(cfg.outDir, cfg.sp.name)
		if err != nil {
			return nil, err
		}
		r.res.tracePath = path
		r.res.spans = r.tracer.recorded()
	}
	r.res.wall = time.Since(started)
	return r.res, nil
}

// setup assembles the deployment and subscribes the population cfg.setups
// times, keeping the last. setup_s is the median; the live-heap figure is
// the growth across the kept set-up, after a GC on each side.
func (r *run) setup() (setupS, heapMB float64, err error) {
	var times []float64
	var spent time.Duration
	for i := 0; i < r.cfg.setups || (spent < setupBudget && i < maxSetups && r.cfg.setups > 1); i++ {
		if r.c != nil {
			r.c.close()
			r.c = nil
		}
		r.rec = newRecorder(r.cfg.sp.clients)
		before := liveHeap()
		t0 := time.Now()
		if r.c, err = assemble(r.cfg.sp, r.rec, r.tracer); err != nil {
			return 0, 0, err
		}
		if err = r.c.populate(r.ctx, r.g); err != nil {
			return 0, 0, err
		}
		spent += time.Since(t0)
		times = append(times, time.Since(t0).Seconds())
		after := liveHeap()
		heapMB = (float64(after) - float64(before)) / (1 << 20)
	}
	r.setups = len(times)
	return median(times), heapMB, nil
}

// generate extends the sequence by n events and the bookkeeping with it.
func (r *run) generate(n int) (evs []*event.Event, base int) {
	base = len(r.g.desc)
	evs = r.g.events(n)
	r.published = append(r.published, make([]bool, n)...)
	return evs, base
}

func (r *run) publish(ev *event.Event, seq int) {
	r.attempts.Add(1)
	sp := r.tracer.start(r.ctx, "publish", layerCore)
	_, err := r.c.origin().svc.PublishBuild(sp.context(r.ctx), &collection.BuildResult{Events: []*event.Event{ev}})
	sp.end()
	if err != nil {
		r.publishErrs.Add(1)
		return
	}
	r.published[seq] = true
}

// closedLoop publishes evs from `publishers` goroutines, each sending its
// next event when the previous publish returned, for d or until evs run out.
func (r *run) closedLoop(evs []*event.Event, base int, d time.Duration) (completed int) {
	var cursor, done atomic.Int64
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(cursor.Add(1) - 1)
				if i >= len(evs) {
					return
				}
				r.publish(evs[i], base+i)
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	return int(done.Load())
}

func (r *run) warmup() {
	d := time.Duration(min(1, r.cfg.seconds/4) * float64(time.Second))
	evs, base := r.generate(int(float64(r.cfg.sp.capRate) * d.Seconds()))
	stop := r.startLoadChurn()
	r.closedLoop(evs, base, d)
	stop()
	r.drain()
}

func (r *run) drain() {
	ctx, cancel := context.WithTimeout(r.ctx, 60*time.Second)
	defer cancel()
	if err := r.c.drain(ctx); err != nil {
		r.res.problem("%v", err)
	}
}

// saturated is what one saturate repetition measured.
type saturated struct {
	eventsPerS, cpuUs, allocs, bytes float64
}

// saturate runs the closed loop at full speed, from a collected heap.
func (r *run) saturate(d time.Duration) saturated {
	evs, base := r.generate(int(float64(r.cfg.sp.capRate) * d.Seconds()))
	runtime.GC()
	stop := r.startLoadChurn()
	before := snapshotUsage()
	n := r.closedLoop(evs, base, d)
	r.drain()
	after := snapshotUsage()
	stop()
	f := float64(max(n, 1))
	return saturated{
		eventsPerS: f / after.at.Sub(before.at).Seconds(),
		cpuUs:      float64((after.cpu - before.cpu).Microseconds()) / f,
		allocs:     float64(after.mallocs-before.mallocs) / f,
		bytes:      float64(after.bytes-before.bytes) / f,
	}
}

// pacedResult is what one paced repetition measured.
type pacedResult struct {
	publish     []int64 // due → PublishBuild returned, ns, in due order
	notify      []int64 // due → notification at the sink, ns
	dwell       []int64 // match end → sink, ns (traced runs)
	events      int
	began       int64 // unix ns of the first due time
	ended       int64 // unix ns after the drain
	elapsed     time.Duration
	maxLate     time.Duration // worst hand-off of an event to a publisher, after its due time
	maxWake     time.Duration // worst wake-up of the pacer itself: the harness's own share of maxLate
	sustainable bool
	depthMax    int
}

// paced publishes at the workload's fixed rate from one pacer feeding the
// publishers. Every latency is timed from the event's due time.
func (r *run) paced(d time.Duration) pacedResult {
	rate := float64(r.cfg.sp.pacedRate)
	n := max(int(rate*d.Seconds()), 1)
	evs, base := r.generate(n)
	expected := 0
	for seq := base; seq < base+n; seq++ {
		r.g.forEachHit(seq, func(int) { expected++ })
	}
	ph := &timedPhase{base: base, due: make([]int64, n)}
	ph.notify.init(expected)
	if r.tracer != nil {
		ph.dwell.init(expected)
		ph.matchEnd = make([][]int64, len(r.c.servers)+1)
		for i := range ph.matchEnd {
			ph.matchEnd[i] = make([]int64, n)
		}
	}
	r.rec.phase.Store(ph)
	runtime.GC()
	stop := r.startLoadChurn()

	publish := make([]int64, n)
	work := make(chan int)
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				r.publish(evs[i], base+i)
				publish[i] = time.Now().UnixNano() - ph.due[i]
			}
		}()
	}
	interval := float64(time.Second) / rate
	start := time.Now().Add(2 * time.Millisecond)
	began := start.UnixNano()
	var maxLate, maxWake time.Duration
	lateEvents, depthMax := 0, 0
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		ph.due[i] = due.UnixNano()
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		maxWake = max(maxWake, time.Since(due))
		work <- i
		late := time.Since(due)
		maxLate = max(maxLate, late)
		if late > maxLateness {
			lateEvents++
		}
		depthMax = max(depthMax, r.c.queueDepth())
	}
	close(work)
	wg.Wait()
	published := time.Now()
	r.drain()
	// The shard queues are bounded and block the publishers when full, so a
	// rate the system cannot hold shows as generator lateness; whatever
	// backlog fits the queues shows as a long drain.
	backlog := time.Since(published) > maxDrain
	elapsed := time.Since(start)
	stop()
	r.rec.phase.Store(nil)
	return pacedResult{
		publish:     publish,
		notify:      ph.notify.values(),
		dwell:       ph.dwell.values(),
		events:      n,
		began:       began,
		ended:       time.Now().UnixNano(),
		elapsed:     elapsed,
		maxLate:     maxLate,
		maxWake:     maxWake,
		sustainable: float64(lateEvents) <= maxLateShare*float64(n) && !backlog,
		depthMax:    depthMax,
	}
}

// churnPair subscribes and unsubscribes one never-matching profile at the
// origin server, returning the pair's duration.
func (r *run) churnPair() time.Duration {
	svc := r.c.origin().svc
	t0 := time.Now()
	r.churnOps.Add(2)
	sp := r.tracer.start(r.ctx, "subscribe", layerCore)
	id, err := svc.Subscribe("churner", r.g.churnExpr())
	sp.end()
	if err != nil {
		r.churnErrs.Add(2)
		return time.Since(t0)
	}
	sp = r.tracer.start(r.ctx, "unsubscribe", layerCore)
	err = svc.Unsubscribe("churner", id)
	sp.end()
	if err != nil {
		r.churnErrs.Add(1)
	}
	return time.Since(t0)
}

// churn runs subscribe+unsubscribe pairs back to back from one goroutine
// against the populated, quiescent cluster.
func (r *run) churn(d time.Duration, maxPairs int) []int64 {
	lat := make([]int64, 0, 1<<16)
	runtime.GC()
	deadline := time.Now().Add(d)
	for len(lat) < maxPairs && time.Now().Before(deadline) {
		lat = append(lat, int64(r.churnPair()))
	}
	return lat
}

// every calls fn once per interval from a goroutine of its own. The returned
// function stops it and waits for it.
func every(interval time.Duration, fn func()) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				fn()
			}
		}
	}()
	return func() { close(quit); <-done }
}

// startLoadChurn starts the workload's concurrent churn stream (if it has
// one): sp.loadChurn pairs per second beside the publishers.
func (r *run) startLoadChurn() (stop func()) {
	if r.cfg.sp.loadChurn == 0 {
		return func() {}
	}
	return every(time.Second/time.Duration(r.cfg.sp.loadChurn), func() { r.churnPair() })
}

func (r *run) phase(share float64) time.Duration {
	return time.Duration(r.cfg.seconds * share / float64(r.cfg.reps) * float64(time.Second))
}

// measuredPhases runs the repetitions of an end-to-end run and reports the
// end-to-end metrics, each the median over the repetitions.
func (r *run) measuredPhases(setupS, heapMB float64) error {
	var evS, cpu, allocs, bytes []float64
	var publish, notify, churn []summary
	unsustainable := 0
	for rep := 0; rep < r.cfg.reps; rep++ {
		s := r.saturate(r.phase(saturateShare))
		evS, cpu = append(evS, s.eventsPerS), append(cpu, s.cpuUs)
		allocs, bytes = append(allocs, s.allocs), append(bytes, s.bytes)

		p := r.paced(r.phase(pacedShare))
		publish, notify = append(publish, summarize(p.publish)), append(notify, summarize(p.notify))
		state := "sustained"
		if !p.sustainable {
			unsustainable++
			state = "UNSUSTAINABLE"
		}
		fmt.Fprintf(r.cfg.log, "# %s rep %d: saturate %.0f ev/s; paced %d ev/s %s, generator max lateness %.2f ms (pacer wake-up %.2f ms), queue depth max %d\n",
			r.cfg.sp.name, rep, s.eventsPerS, r.cfg.sp.pacedRate, state, float64(p.maxLate)/1e6, float64(p.maxWake)/1e6, p.depthMax)

		churn = append(churn, summarize(r.churn(r.phase(churnShare), maxChurnPairs)))
	}
	// One disturbed repetition does not fail a run whose reported values are
	// medians; a rate the system cannot hold fails most repetitions.
	if 2*unsustainable > r.cfg.reps {
		r.res.problem("unsustainable: %d of %d paced repetitions fell behind %d ev/s", unsustainable, r.cfg.reps, r.cfg.sp.pacedRate)
	}

	rel := func(xs []float64) string {
		return fmt.Sprintf("median of %d, spread %.3f", len(xs), spread(xs))
	}
	pub, pubNote, pubTailNote := overReps(publish, 1e6)
	not, notNote, notTailNote := overReps(notify, 1e6)
	ch, chNote, chTailNote := overReps(churn, 1e3)
	r.res.metrics = []metric{
		{"setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups", r.setups)},
		{"heap_after_setup_mb", heapMB, "MB", ""},
		{"events_per_s", median(evS), "1/s", rel(evS)},
		{"cpu_us_per_event", median(cpu), "us", rel(cpu)},
		{"allocs_per_event", median(allocs), "count", rel(allocs)},
		{"bytes_per_event", median(bytes), "B", rel(bytes)},
		{"publish_p50_ms", pub.p50, "ms", pubNote},
		{"publish_p75_ms", pub.p75, "ms", pubNote},
		{"notify_p50_ms", not.p50, "ms", notNote},
		{"notify_p90_ms", not.p90, "ms", notNote},
		{"churn_p50_us", ch.p50, "us", chNote},
		{"churn_mean_us", ch.mean, "us", chNote},
	}
	// Reported, not bounded: the slowest percent is set by a handful of GC
	// episodes and machine stalls per repetition (see README, "Tails").
	r.res.unbounded = []metric{
		{"publish_p99_ms", pub.tail, "ms", pubTailNote},
		{"notify_p99_ms", not.tail, "ms", notTailNote},
		{"churn_p99_us", ch.tail, "us", chTailNote},
	}
	return nil
}

// verify drains, settles the workload-specific end state and compares what
// the sinks saw with the generator's expectation.
func (r *run) verify() {
	r.drain()
	res := r.res
	if r.c.standby != nil {
		r.compareMailboxes("before re-attach")
		for client := 0; client < r.cfg.sp.clients; client++ {
			if r.g.detached(client) {
				if err := r.c.attach(r.ctx, client); err != nil {
					res.problem("re-attach %s: %v", clientName(client), err)
				}
			}
		}
		r.drain()
		r.compareMailboxes("after re-attach")
	}

	ex := r.g.expect(r.published)
	var missing, extra, mismatched int64
	for c := range ex.count {
		got, want := r.rec.count[c].Load(), ex.count[c]
		switch {
		case got < want:
			missing += want - got
		case got > want:
			extra += got - want
		case r.rec.sum[c].Load() != ex.sum[c]:
			mismatched++ // right count, wrong (event, profile) multiset
		}
		cg, cw := r.rec.composite[c].Load(), ex.composite[c]
		if cg < cw {
			missing += cw - cg
		} else {
			extra += cg - cw
		}
	}
	if missing+extra+mismatched > 0 {
		res.problem("notifications: %d missing, %d duplicate or unexpected, %d clients with a wrong multiset (expected %d primitive + %d composite)",
			missing, extra, mismatched, ex.total, ex.compTotal)
	}
	if n := r.rec.malformed.Load(); n > 0 {
		res.problem("%d notifications carried IDs the generator did not mint", n)
		res.failed += n
	}

	var firings, deferred, coalesced int64
	for _, s := range r.c.servers {
		st := s.svc.Stats()
		firings += st.CompositeFirings
		deferred += st.QoSDeferred
		coalesced += st.QoSCoalesced
	}
	if r.cfg.sp.compositeEvery > 0 {
		var got int64
		for c := range r.rec.composite {
			got += r.rec.composite[c].Load()
		}
		if got != firings || got == 0 {
			res.problem("composite notifications received %d, engine fired %d (must be equal and > 0)", got, firings)
		}
	}
	if r.cfg.sp.qos && deferred+coalesced != 0 {
		res.problem("admission shed traffic: %d deferred, %d coalesced (quotas must never bite)", deferred, coalesced)
	}

	res.failed += missing + extra + mismatched + r.publishErrs.Load() + r.churnErrs.Load()
	res.attempted = ex.total + ex.compTotal + r.attempts.Load() + r.churnOps.Load()
	if n := r.publishErrs.Load(); n > 0 {
		res.problem("%d publishes failed", n)
	}
	if n := r.churnErrs.Load(); n > 0 {
		res.problem("%d churn operations failed", n)
	}
}

// compareMailboxes checks the standby mirrors the primary's pending set.
func (r *run) compareMailboxes(when string) {
	index := func(p *delivery.Pipeline) map[string]delivery.MailboxSnapshot {
		out := make(map[string]delivery.MailboxSnapshot)
		for _, mb := range p.ExportMailboxes() {
			out[mb.Client] = mb
		}
		return out
	}
	prim, sby := index(r.c.origin().pipeline), index(r.c.standby.pipeline)
	diff := 0
	for client, pm := range prim {
		sm, ok := sby[client]
		if !ok || sm.NextSeq != pm.NextSeq || len(sm.Entries) != len(pm.Entries) {
			diff++
			continue
		}
		for i := range pm.Entries {
			if pm.Entries[i].Seq != sm.Entries[i].Seq {
				diff++
				break
			}
		}
	}
	for client := range sby {
		if _, ok := prim[client]; !ok {
			diff++
		}
	}
	if diff > 0 {
		r.res.problem("standby mailboxes differ from the primary's for %d clients (%s)", diff, when)
		r.res.failed += int64(diff)
	}
}
