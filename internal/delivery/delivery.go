// Package delivery implements the asynchronous notification-delivery
// pipeline that decouples the hot profile-matching path (internal/core) from
// client delivery. The paper's prototype notifies clients synchronously
// inside the filtering step, which both slows the matching loop and silently
// loses alerts for disconnected users; this package extends the paper's §7
// partition-tolerance — "notifications ... would be delayed until the network
// connection is reestablished" — from auxiliary profiles to the
// notifications themselves.
//
// Architecture:
//
//	Enqueue ──▶ per-user mailbox (append; WAL when durable)
//	        ──▶ hash(client) ──▶ shard: per-class queues (bounded)
//	                               │ realtime ─┐
//	                               │ normal  ──┼─ WFQ dequeue ──▶ worker
//	                               │ bulk    ──┘ (qos.Scheduler)
//	                               │ full: Enqueue blocks (backpressure)
//	                               ▼
//	                     per-client batch (flush on size / interval)
//	                               ▼
//	                 Deliverer (attached sink) ──▶ ack mailbox
//	                     └─ none attached ──▶ park in mailbox
//
// Each shard keeps one bounded queue per QoS class and services them by
// weighted deficit round-robin (internal/qos), so a bulk flood cannot queue
// ahead of realtime traffic: realtime latency is bounded by its own queue
// depth and service weight, not by total load. Ordering is therefore FIFO
// per client per class; a client's realtime alerts may legitimately overtake
// its earlier bulk alerts. A failed delivery does not break that order: the
// client's later batches park behind the failed one until the retry or the
// next Attach resends the mailbox in order.
//
// A parked notification survives until the client re-attaches (reconnect),
// at which point the mailbox is drained back through the pipeline. With a
// WAL directory configured, parked notifications also survive process
// restarts: the write-ahead log is replayed on open and compacted into a
// snapshot once enough of it is dead.
package delivery

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/logging"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/trace"
)

// Notification is one alert addressed to one client. core.Notification is an
// alias of this type so the match path hands matches over without copying.
type Notification struct {
	// Client is the recipient.
	Client string
	// ProfileID identifies the matching profile.
	ProfileID string
	// Event is the matching event.
	Event *event.Event
	// DocIDs are the matching documents (empty for event-level matches).
	// The slice may share a per-event backing array with other
	// notifications of the same match (filter.Match) and is read-only.
	DocIDs []string
	// Composite names the composite operator ("sequence", "count",
	// "digest") behind a synthesized alert; empty for primitive alerts.
	Composite string
	// Contributing are the primitive events behind a composite alert, in
	// arrival order; Event then holds the synthesized summary event. Nil
	// for primitive alerts.
	Contributing []*event.Event
	// Class is the QoS priority class inherited from the matching profile;
	// it selects the shard queue (and so the scheduling weight) the
	// notification is serviced from. Zero value = qos.ClassNormal.
	Class qos.Class
	// At is the local delivery time.
	At time.Time
	// Trace is the trace context of the admission decision that produced
	// this notification; the pipeline's queue-wait, flush and notify spans
	// chain under it. The zero value (untraced) costs nothing.
	Trace trace.Context
}

// Deliverer pushes one batch of notifications to one client. A non-nil error
// parks the batch in the client's mailbox for redelivery (the transport or
// client is treated as temporarily unreachable).
type Deliverer func(client string, batch []Notification) error

// Defaults used by Config when fields are zero.
const (
	DefaultShards        = 4
	DefaultQueueDepth    = 1024
	DefaultBatchSize     = 32
	DefaultFlushInterval = 25 * time.Millisecond
	DefaultMailboxCap    = 4096
	DefaultRetryInterval = time.Second
)

// Config assembles a Pipeline.
type Config struct {
	// Shards is the number of worker pools; clients are FNV-hashed onto
	// shards so one client's notifications stay ordered. Default 4.
	Shards int
	// QueueDepth bounds each shard's in-memory queue per class; a full
	// queue blocks Enqueue until the worker frees a slot, so producers
	// (collection builds) slow down rather than lose alerts. Default 1024.
	QueueDepth int
	// BatchSize flushes a client's batch when it reaches this many
	// notifications. Default 32.
	BatchSize int
	// FlushInterval flushes all open batches at least this often, bounding
	// delivery latency for slow trickles. Default 25ms.
	FlushInterval time.Duration
	// Dir enables durability: per-user write-ahead logs live here. Empty
	// keeps mailboxes memory-only.
	Dir string
	// MailboxCap bounds parked notifications per user; beyond it the
	// oldest parked alerts are dropped (counted). Default 4096.
	MailboxCap int
	// CompactThreshold rewrites a mailbox WAL once it holds this many dead
	// records (delivered or dropped). Default 1024.
	CompactThreshold int
	// RetryInterval schedules redelivery of notifications parked by a
	// FAILED delivery attempt while the client stays attached (a client
	// that detaches is drained by its next Attach instead). Default 1s.
	// QoS-deferred notifications (Defer) ride the same schedule.
	RetryInterval time.Duration
	// Tracer records the pipeline's queue-wait, flush and notify spans for
	// sampled notifications. nil disables tracing.
	Tracer *trace.Tracer
	// Log is the pipeline's component logger (docs/LOGGING.md): QoS
	// deferrals at debug, mailbox evictions and failed deliveries at warn,
	// carrying the notification's trace ID where one is in scope. A nil
	// logger disables every site at one pointer check.
	Log *logging.Logger
}

func (c *Config) fillDefaults() {
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = DefaultFlushInterval
	}
	if c.MailboxCap <= 0 {
		c.MailboxCap = DefaultMailboxCap
	}
	if c.CompactThreshold <= 0 {
		c.CompactThreshold = defaultCompactThreshold
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = DefaultRetryInterval
	}
}

// item is one queued delivery: the notification plus its mailbox sequence.
// For traced notifications, qw is the open queue-wait span (admit →
// dequeue) and deq the dequeue time the flush span starts from; both are
// zero on the untraced hot path.
type item struct {
	n   Notification
	seq uint64
	qw  trace.Span
	deq time.Time
}

// shard is one worker pool: one bounded queue per QoS class and a goroutine
// batching per client. The worker services the class queues by weighted
// deficit round-robin.
type shard struct {
	chs [qos.NumClasses]chan item
	// sched is the worker's WFQ policy. Only the worker calls Pick;
	// observability scrapes read the atomic credits via sched.Credits().
	sched *qos.Scheduler
	poke  chan struct{}
}

// delivererEntry is a registered sink plus the generation of the Attach
// that installed it; flush uses the generation to detect a re-Attach that
// raced a failed or sink-less delivery.
type delivererEntry struct {
	fn  Deliverer
	gen uint64
}

// Pipeline is the sharded asynchronous delivery engine.
type Pipeline struct {
	cfg    Config
	shards []*shard
	m      *Metrics

	mu         sync.Mutex
	deliverers map[string]delivererEntry
	attachGen  uint64
	mailboxes  map[string]*mailbox
	// retryAt schedules a mailbox re-drain for clients whose attached sink
	// failed a delivery; the retry loop fires due entries.
	retryAt map[string]time.Time
	// held maps a client to the oldest entry of its last failed batch; its
	// later batches park until that entry is delivered (holdsBack).
	held   map[string]uint64
	closed bool
	// obs, when set, observes every logical mailbox mutation — appends,
	// delivery acks and cap evictions — so a replication stream can mirror
	// the pending set on a standby (SetObserver).
	obs func([]MailboxOp)

	// inflight counts notifications admitted to a shard queue and not yet
	// delivered or parked. Drain waits for zero.
	inflight atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

// ErrClosed reports an Enqueue after Close.
var ErrClosed = errors.New("delivery: pipeline closed")

// NewPipeline builds and starts a pipeline. With cfg.Dir set, existing
// mailbox WALs under it are recovered immediately (their notifications stay
// parked until the owning clients attach).
func NewPipeline(cfg Config) (*Pipeline, error) {
	cfg.fillDefaults()
	p := &Pipeline{
		cfg:        cfg,
		m:          &Metrics{},
		deliverers: make(map[string]delivererEntry),
		mailboxes:  make(map[string]*mailbox),
		retryAt:    make(map[string]time.Time),
		held:       make(map[string]uint64),
		stop:       make(chan struct{}),
	}
	if cfg.Dir != "" {
		boxes, err := recoverMailboxes(cfg.Dir, cfg.MailboxCap, cfg.CompactThreshold)
		if err != nil {
			return nil, err
		}
		for user, mb := range boxes {
			p.mailboxes[user] = mb
			p.m.Recovered.Add(int64(mb.pendingCount()))
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{sched: qos.NewScheduler(), poke: make(chan struct{}, 1)}
		for c := range sh.chs {
			sh.chs[c] = make(chan item, cfg.QueueDepth)
		}
		p.shards = append(p.shards, sh)
		p.wg.Add(1)
		go p.worker(sh)
	}
	p.wg.Add(1)
	go p.retryLoop()
	return p, nil
}

// retryLoop re-drains the mailboxes of clients whose attached sink failed a
// delivery, once their backoff elapses. Without it, alerts parked by a
// transient transport error would wait for the client's next reconnect even
// though the client never went away.
func (p *Pipeline) retryLoop() {
	defer p.wg.Done()
	ticker := time.NewTicker(p.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
		}
		now := time.Now()
		var due []string
		p.mu.Lock()
		for client, at := range p.retryAt {
			if !now.Before(at) {
				delete(p.retryAt, client)
				due = append(due, client)
			}
		}
		p.mu.Unlock()
		for _, client := range due {
			p.redrain(client, nil)
		}
	}
}

// redrain feeds everything parked in a client's mailbox back through the
// shard queues: the reconnect drain of Attach, which first installs d as
// the client's sink, and the retry loop's re-drain (d nil), which skips a
// client that has since detached — its next Attach drains instead. Only
// Close makes admit fail; admit parks the item it refused and redrain
// parks the rest of the snapshot, so nothing is left marked inflight.
func (p *Pipeline) redrain(client string, d Deliverer) {
	p.mu.Lock()
	if d != nil && !p.closed {
		p.attachGen++
		p.deliverers[client] = delivererEntry{fn: d, gen: p.attachGen}
	}
	_, attached := p.deliverers[client]
	mb := p.mailboxes[client]
	if p.closed || !attached || mb == nil {
		p.mu.Unlock()
		return
	}
	items := mb.takePending()
	p.mu.Unlock()
	for i, it := range items {
		if err := p.admit(it, mb); err != nil {
			for _, rest := range items[i+1:] {
				mb.park(rest.seq)
			}
			return
		}
	}
}

// shardOf hashes a client onto a shard, keeping one client's notifications
// on one worker (per-client FIFO ordering).
func (p *Pipeline) shardOf(client string) *shard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(client))
	return p.shards[int(h.Sum32())%len(p.shards)]
}

// mailboxOf returns (creating on demand) the client's mailbox.
func (p *Pipeline) mailboxOf(client string) (*mailbox, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	mb := p.mailboxes[client]
	if mb == nil {
		var err error
		mb, err = newMailbox(p.cfg.Dir, client, p.cfg.MailboxCap, p.cfg.CompactThreshold)
		if err != nil {
			return nil, err
		}
		p.mailboxes[client] = mb
	}
	return mb, nil
}

// EnqueueChunk is the most notifications one observer call reports for
// EnqueueAll: callers that collect notifications on the stack size their
// arrays by it.
const EnqueueChunk = 16

// Enqueue admits one notification. It appends to the client's mailbox first
// (write-ahead: with durability on, a process crash after Enqueue returns
// cannot lose the alert — appends are buffered writes, so power-loss
// durability is bounded by the OS page cache; the WAL is fsynced on
// compaction and close), then queues it for asynchronous delivery, blocking
// while the shard's queue for its class is full.
func (p *Pipeline) Enqueue(n Notification) error {
	ns := [1]Notification{n}
	_, err := p.EnqueueAll(ns[:])
	return err
}

// EnqueueAll admits ns in order, as Enqueue does each one, but reports the
// appends of every EnqueueChunk notifications to the observer in one call.
// It returns how many were queued and the first refusal's error; a refused
// notification does not stop the rest.
func (p *Pipeline) EnqueueAll(ns []Notification) (queued int, err error) {
	var acc [EnqueueChunk]accepted
	for len(ns) > 0 {
		chunk := ns[:min(len(ns), EnqueueChunk)]
		ns = ns[len(chunk):]
		p.accept(chunk, acc[:len(chunk)])
		for i, a := range acc[:len(chunk)] {
			if a.err == nil {
				p.m.Enqueued.Inc()
				a.err = p.admit(item{n: chunk[i], seq: a.seq}, a.mb)
			}
			if a.err != nil {
				if err == nil {
					err = a.err
				}
				continue
			}
			queued++
		}
	}
	return queued, err
}

// accepted is one notification's outcome in accept: the mailbox and
// sequence it was appended under and the parked entries the cap evicted,
// or the error that refused it.
type accepted struct {
	mb      *mailbox
	seq     uint64
	evicted []uint64
	err     error
}

// accept appends ns to their clients' mailboxes, the one way a notification
// enters the pipeline, writing each outcome to the same index of out. It
// then replicates the appends with their cap evictions in one observer call,
// before any of the items can be delivered: an item's eventual ack then
// always follows its append on the standby's stream.
func (p *Pipeline) accept(ns []Notification, out []accepted) {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	appended := 0
	for i := range ns {
		a := accepted{err: ErrClosed}
		if !closed {
			a.mb, a.err = p.mailboxOf(ns[i].Client)
		}
		if a.err == nil {
			a.seq, a.evicted, a.err = a.mb.add(ns[i])
		}
		if a.err == nil {
			appended++
			p.m.Dropped.Add(int64(len(a.evicted)))
		}
		out[i] = a
	}
	obs := p.observer()
	if obs == nil || appended == 0 {
		return
	}
	ops := make([]MailboxOp, 0, appended)
	for i, a := range out {
		if a.err != nil {
			continue
		}
		ops = append(ops, MailboxOp{Client: ns[i].Client, Seq: a.seq, N: ns[i]})
		for _, gone := range a.evicted {
			ops = append(ops, MailboxOp{Client: ns[i].Client, Seq: gone, Ack: true})
		}
	}
	obs(ops)
}

// classOf bounds a notification's class to a valid queue index (a corrupt
// WAL or future wire value must not panic the worker).
func classOf(n Notification) qos.Class {
	if n.Class >= qos.NumClasses {
		return qos.ClassNormal
	}
	return n.Class
}

// admit places an item on its shard's queue for the item's class, blocking
// while that queue is full. The item must already be present (inflight) in
// mb. Class queues are independent: a saturated bulk queue never blocks
// realtime admissions.
func (p *Pipeline) admit(it item, mb *mailbox) error {
	class := classOf(it.n)
	p.inflight.Add(1)
	// Queue-wait starts at admission; backpressure time counts as queue
	// wait, which is exactly what the attribution table should say about a
	// saturated shard.
	it.qw = p.cfg.Tracer.StartChild(it.n.Trace, trace.StageQueueWait)
	it.qw.SetClass(class.String())
	select {
	case p.shardOf(it.n.Client).chs[class] <- it:
		return nil
	case <-p.stop:
		// Shutting down: the item stays in the mailbox, parked (and, when
		// durable, recovered on the next start).
		p.inflight.Add(-1)
		mb.park(it.seq)
		return ErrClosed
	}
}

// Park appends one notification to the client's mailbox at rest, without
// queueing it for immediate delivery. Like every append it is durable under
// Dir and replicated when observed; the retry loop redelivers it once
// RetryInterval elapses, or the client's next Attach does, whichever comes
// first.
func (p *Pipeline) Park(n Notification) error {
	var acc [1]accepted
	p.accept([]Notification{n}, acc[:])
	a := acc[0]
	if a.err != nil {
		return a.err
	}
	a.mb.park(a.seq)
	if len(a.evicted) > 0 {
		p.cfg.Log.Warn("mailbox evicted oldest parked notifications",
			logging.String("client", n.Client), logging.Int("evicted", int64(len(a.evicted))))
	}
	p.mu.Lock()
	if _, due := p.retryAt[n.Client]; !due {
		p.retryAt[n.Client] = time.Now().Add(p.cfg.RetryInterval)
	}
	p.mu.Unlock()
	return nil
}

// Defer parks one notification and counts it as deferred: the QoS
// degradation for over-quota normal-class traffic, delayed and never lost.
func (p *Pipeline) Defer(n Notification) error {
	if err := p.Park(n); err != nil {
		return err
	}
	p.m.Deferred.Inc()
	p.cfg.Log.DebugCtx(n.Trace, "notification deferred to mailbox",
		logging.String("client", n.Client))
	return nil
}

// Attach registers the delivery sink for a client and schedules redelivery
// of everything parked in the client's mailbox (the paper-§7 reconnect
// drain). Attaching replaces any previous sink. Registration and the
// pending snapshot happen under one lock so a flush that is concurrently
// parking this client's batch either parks before (we pick the entries up
// here) or re-checks after and finds the new sink itself.
func (p *Pipeline) Attach(client string, d Deliverer) { p.redrain(client, d) }

// Detach removes a client's sink; subsequent deliveries park in the mailbox
// until the client re-attaches.
func (p *Pipeline) Detach(client string) {
	p.mu.Lock()
	delete(p.deliverers, client)
	p.mu.Unlock()
}

// Pending reports how many notifications are parked in a client's mailbox
// (excluding those currently queued for delivery).
func (p *Pipeline) Pending(client string) int { return p.count(client, (*mailbox).parkedCount) }

// Backlog reports a client's undelivered notifications, parked and in
// flight alike.
func (p *Pipeline) Backlog(client string) int { return p.count(client, (*mailbox).pendingCount) }

func (p *Pipeline) count(client string, of func(*mailbox) int) int {
	p.mu.Lock()
	mb := p.mailboxes[client]
	p.mu.Unlock()
	if mb == nil {
		return 0
	}
	return of(mb)
}

// RetryInterval is the delay before the retry loop redelivers what a failed
// delivery parked.
func (p *Pipeline) RetryInterval() time.Duration { return p.cfg.RetryInterval }

// QueueDepths reports the current occupancy of each shard's queues (summed
// across classes).
func (p *Pipeline) QueueDepths() []int {
	out := make([]int, len(p.shards))
	for i, sh := range p.shards {
		for _, ch := range sh.chs {
			out[i] += len(ch)
		}
	}
	return out
}

// ClassQueueDepths reports the occupancy of every shard's per-class queues,
// indexed [shard][class] — the per-shard/per-class depth panel of the
// Prometheus exposition.
func (p *Pipeline) ClassQueueDepths() [][qos.NumClasses]int {
	out := make([][qos.NumClasses]int, len(p.shards))
	for i, sh := range p.shards {
		for c, ch := range sh.chs {
			out[i][c] = len(ch)
		}
	}
	return out
}

// SchedulerCredits reports the remaining DRR deficit credit of every shard
// worker's WFQ scheduler, indexed [shard][class]. Safe to call while the
// workers run (the credits are atomics).
func (p *Pipeline) SchedulerCredits() [][qos.NumClasses]int64 {
	out := make([][qos.NumClasses]int64, len(p.shards))
	for i, sh := range p.shards {
		out[i] = sh.sched.Credits()
	}
	return out
}

// Metrics exposes the pipeline's counters and histograms.
func (p *Pipeline) Metrics() *Metrics { return p.m }

// Drain flushes every shard and blocks until no notification is queued or
// batched (parked mailbox contents do not count: they are at rest until
// their client attaches). Simulations and tests call it to make
// asynchronous delivery deterministic.
func (p *Pipeline) Drain(ctx context.Context) error {
	for {
		if p.inflight.Load() == 0 {
			return nil
		}
		for _, sh := range p.shards {
			select {
			case sh.poke <- struct{}{}:
			default:
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// Close stops the workers (flushing open batches), compacts and closes every
// mailbox, and rejects further Enqueues.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	close(p.stop)
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	// An Enqueue that raced Close may have landed an item on a queue after
	// its worker exited (the buffered send and the stop case are both ready
	// in admit's select). Park such stragglers so they stay visible in
	// their mailboxes and inflight returns to zero.
	for _, sh := range p.shards {
		for _, ch := range sh.chs {
			for len(ch) > 0 {
				it := <-ch
				if mb := p.mailboxes[it.n.Client]; mb != nil {
					mb.park(it.seq)
				}
				p.inflight.Add(-1)
			}
		}
	}
	var firstErr error
	for _, mb := range p.mailboxes {
		if err := mb.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ---------------------------------------------------------------------------
// Worker

// batcher is what one worker owns: its per-client batches, which outlive a
// flush so that a busy client's batch stops regrowing from nil, and the
// scratch ackItems sorts a batch's seqs in.
type batcher struct {
	open map[string][]item
	seqs []uint64
}

// worker is one shard's goroutine: it services the per-class queues by
// weighted deficit round-robin, accumulates per-client batches and flushes
// them on size, interval, drain pokes and shutdown.
func (p *Pipeline) worker(sh *shard) {
	defer p.wg.Done()
	batches := &batcher{open: make(map[string][]item)}
	ticker := time.NewTicker(p.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		// Fast path: while work is queued, service it in WFQ order. The
		// inline ticker check keeps interval flushes honest under sustained
		// load (the select below is only reached when the queues go idle).
		if it, ok := tryDequeue(sh); ok {
			p.ingest(batches, it)
			select {
			case <-ticker.C:
				p.flushAll(batches)
			default:
			}
			continue
		}
		select {
		case it := <-sh.chs[qos.ClassRealtime]:
			p.ingest(batches, it)
		case it := <-sh.chs[qos.ClassNormal]:
			p.ingest(batches, it)
		case it := <-sh.chs[qos.ClassBulk]:
			p.ingest(batches, it)
		case <-ticker.C:
			p.drainQueue(sh, batches)
			p.flushAll(batches)
		case <-sh.poke:
			p.drainQueue(sh, batches)
			p.flushAll(batches)
		case <-p.stop:
			p.drainQueue(sh, batches)
			p.flushAll(batches)
			return
		}
	}
}

// tryDequeue takes the next queued item in WFQ order without blocking. The
// worker is its shard's only receiver while it runs, so a class Pick found
// non-empty still holds an item.
func tryDequeue(sh *shard) (item, bool) {
	c, ok := sh.sched.Pick(func(cl qos.Class) bool { return len(sh.chs[cl]) > 0 })
	if !ok {
		return item{}, false
	}
	return <-sh.chs[c], true
}

// ingest adds one item to its client batch, flushing on size.
func (p *Pipeline) ingest(w *batcher, it item) {
	if it.n.Trace.Sampled() {
		it.qw.Finish()
		it.deq = time.Now()
	}
	b := append(w.open[it.n.Client], it)
	if len(b) >= p.cfg.BatchSize {
		pass := flushPass{obs: p.observer()}
		p.flush(w, it.n.Client, b, &pass)
		p.endPass(&pass)
		clear(b)
		b = b[:0]
	}
	w.open[it.n.Client] = b
}

// drainQueue consumes everything currently queued without blocking,
// classes in priority order.
func (p *Pipeline) drainQueue(sh *shard, batches *batcher) {
	for {
		got := false
		for _, c := range qos.ByPriority {
			select {
			case it := <-sh.chs[c]:
				p.ingest(batches, it)
				got = true
			default:
			}
		}
		if !got {
			return
		}
	}
}

// flushPass gathers what one flush pass owes the rest of the pipeline: the
// delivery acks to replicate, for the observer current when it started,
// and the number of items it finished.
type flushPass struct {
	obs  func([]MailboxOp)
	acks []MailboxOp
	done int64
}

// endPass reports the pass's acks in one observer call and only then
// releases its items from inflight, so a Drain that returns has seen the
// observer return for every ack.
func (p *Pipeline) endPass(pass *flushPass) {
	if len(pass.acks) > 0 {
		pass.obs(pass.acks)
	}
	p.inflight.Add(-pass.done)
}

// flushAll flushes every open batch as one pass. A batch still empty from
// the previous pass belongs to a client idle since then and is dropped, so
// the batches a worker keeps are bounded by the clients active in the last
// pass interval.
func (p *Pipeline) flushAll(w *batcher) {
	if len(w.open) == 0 {
		return
	}
	pass := flushPass{obs: p.observer()}
	for client, b := range w.open {
		if len(b) == 0 {
			delete(w.open, client)
			continue
		}
		p.flush(w, client, b, &pass)
		clear(b)
		w.open[client] = b[:0]
	}
	p.endPass(&pass)
}

// flush delivers one client's batch through its attached sink, acking the
// mailbox on success and parking on failure, when no sink is attached, or
// when the batch must wait behind an older failed one (holdsBack). Parking
// happens under p.mu after re-reading the sink registration, so a
// concurrent Attach cannot slip between the lookup and the park and leave
// the batch stranded: either the Attach's takePending sees the parked
// entries, or flush sees the freshly attached sink and delivers to it. The
// batch's acks and inflight release are left to the pass. Nothing keeps b
// once flush returns (the sink gets a copy), so the worker reuses it.
func (p *Pipeline) flush(w *batcher, client string, b []item, pass *flushPass) {
	if len(b) == 0 {
		return
	}
	pass.done += int64(len(b))
	ns := make([]Notification, len(b))
	for i, it := range b {
		ns[i] = it.n
	}
	var triedGen uint64
	tried := false
	for {
		p.mu.Lock()
		e, attached := p.deliverers[client]
		held := p.holdsBack(client, b)
		if !attached || held || (tried && e.gen == triedGen) {
			// No sink, an older failed batch still undelivered, or the sink
			// we already tried is still the current one: park. A sink
			// installed by a *newer* Attach loops back and is tried instead.
			mb := p.mailboxes[client]
			if mb != nil {
				for _, it := range b {
					mb.park(it.seq)
				}
			}
			if tried {
				// The sink is still attached but failing: hold the client's
				// later batches behind this one and schedule an automatic
				// re-drain instead of waiting for a reconnect.
				p.held[client] = slices.MinFunc(b, func(x, y item) int { return cmp.Compare(x.seq, y.seq) }).seq
				p.retryAt[client] = time.Now().Add(p.cfg.RetryInterval)
			} else if _, due := p.retryAt[client]; held && !due {
				p.retryAt[client] = time.Now().Add(p.cfg.RetryInterval)
			}
			p.mu.Unlock()
			p.m.Parked.Add(int64(len(b)))
			if tried {
				p.m.Retried.Add(int64(len(b)))
				p.cfg.Log.Warn("delivery failed, batch parked for retry",
					logging.String("client", client), logging.Int("batch", int64(len(b))))
			}
			return
		}
		d, gen := e.fn, e.gen
		p.mu.Unlock()
		start := time.Now()
		err := d(client, ns)
		sendDur := time.Since(start)
		p.m.noteFlush(len(b), sendDur)
		if err == nil {
			p.ackItems(w, client, b, pass)
			p.m.Delivered.Add(int64(len(b)))
			now := time.Now()
			for _, it := range b {
				c := classOf(it.n)
				p.m.DeliveredByClass[c].Inc()
				if !it.n.At.IsZero() {
					// End-to-end delivery latency per class (enqueue → sink),
					// including any parked or deferred dwell time. A sampled
					// notification leaves its trace ID as the bucket's
					// OpenMetrics exemplar, linking the histogram to the span
					// tree that landed there.
					if it.n.Trace.Sampled() {
						p.m.ClassLatency[c].ObserveExemplar(now.Sub(it.n.At), it.n.Trace.TraceID())
					} else {
						p.m.ClassLatency[c].Observe(now.Sub(it.n.At))
					}
				}
				if it.n.Trace.Sampled() {
					p.recordFlushSpans(it, c, start, sendDur, now, len(b))
				}
			}
			return
		}
		tried, triedGen = true, gen
	}
}

// holdsBack reports whether b must park behind the oldest entry of the
// client's last failed batch: while that entry is undelivered, a batch with
// later entries that does not carry it waits for the retry, which resends
// the mailbox in order. Without the hold, a batch queued behind a failed one
// would reach a sink that recovered in between ahead of it. Called under
// p.mu; a hold whose entry was delivered or evicted lapses here.
func (p *Pipeline) holdsBack(client string, b []item) bool {
	h, ok := p.held[client]
	if !ok {
		return false
	}
	if mb := p.mailboxes[client]; mb == nil || !mb.has(h) {
		delete(p.held, client)
		return false
	}
	return !slices.ContainsFunc(b, func(it item) bool { return it.seq == h }) &&
		slices.ContainsFunc(b, func(it item) bool { return it.seq > h })
}

// recordFlushSpans emits one traced item's flush and notify spans after a
// successful batch delivery. The flush span runs dequeue → delivered
// (batch dwell plus the send); the nested notify span is the sink call
// itself. An item without a queue-wait span chains directly under n.Trace
// with the batch send as its flush window.
func (p *Pipeline) recordFlushSpans(it item, c qos.Class, sendStart time.Time, sendDur time.Duration, end time.Time, batchLen int) {
	parent := it.n.Trace
	if qctx := it.qw.Context(); qctx.Sampled() {
		parent = qctx
	}
	flushStart := it.deq
	if flushStart.IsZero() {
		flushStart = sendStart
	}
	fctx := p.cfg.Tracer.Record(parent, trace.StageFlush, flushStart, end.Sub(flushStart), c.String(),
		trace.Attr{Key: "batch", Value: fmt.Sprint(batchLen)})
	p.cfg.Tracer.Record(fctx, trace.StageNotify, sendStart, sendDur, c.String())
}

// ackItems removes delivered items from the client's mailbox, adding the
// acks to the pass when it has an observer to report them to.
func (p *Pipeline) ackItems(w *batcher, client string, b []item, pass *flushPass) {
	p.mu.Lock()
	mb := p.mailboxes[client]
	p.mu.Unlock()
	if mb == nil {
		return
	}
	// One client's batch can interleave QoS classes, so its seqs need not
	// ascend until sorted.
	w.seqs = w.seqs[:0]
	for _, it := range b {
		w.seqs = append(w.seqs, it.seq)
	}
	slices.Sort(w.seqs)
	var acks *[]MailboxOp
	if pass.obs != nil {
		pass.acks = slices.Grow(pass.acks, len(b))
		acks = &pass.acks
	}
	mb.ack(w.seqs, acks)
}
