package obs

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/gsalert/gsalert/internal/metrics"
)

// Exporter is the push half of the observability story: where Handler
// serves scrapes, the Exporter periodically renders the registry itself,
// gzip-compresses the block, and ships it to an HTTP sink (anything that
// accepts Prometheus text, e.g. a VictoriaMetrics import endpoint or a
// plain collector). The pipeline is staged like the VictoriaMetrics
// importer it is modelled on:
//
//	collect ──> compress ──> bounded queue ──> sender (retry/backoff)
//
// The queue is drop-oldest: when the sink is down long enough to fill it,
// the freshest snapshots win and ExporterMetrics.Dropped counts the loss.
// The exporter monitors itself — its own counters are registered under
// gsalert_exporter_* in the same registry it exports, so the sink sees the
// exporter's health in every block that does arrive.

// ExporterConfig tunes the push pipeline. Zero values select the defaults
// noted on each field.
type ExporterConfig struct {
	// URL is the HTTP sink; the exporter POSTs gzip'd Prometheus text to
	// it. Required.
	URL string
	// Interval between snapshots (default 15s).
	Interval time.Duration
	// Timeout per HTTP attempt (default 10s).
	Timeout time.Duration
	// QueueSize bounds the compressed blocks awaiting send (default 8).
	QueueSize int
	// MaxRetries per block after the first attempt (default 2).
	MaxRetries int
	// RetryBase is the first backoff delay, doubled per retry (default
	// 500ms).
	RetryBase time.Duration
}

func (c *ExporterConfig) fill() error {
	if c.URL == "" {
		return fmt.Errorf("obs: exporter needs a sink URL")
	}
	if c.Interval <= 0 {
		c.Interval = 15 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 8
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 500 * time.Millisecond
	}
	return nil
}

// ExporterMetrics are the pipeline's self-monitoring counters, registered
// as gsalert_exporter_* in the registry the exporter ships.
type ExporterMetrics struct {
	// Scrapes counts registry renders (one per interval tick plus the
	// final flush).
	Scrapes metrics.Counter
	// ScrapeErrors counts renders or compressions that failed.
	ScrapeErrors metrics.Counter
	// Sent counts blocks acknowledged by the sink.
	Sent metrics.Counter
	// Retries counts re-attempts after a failed send.
	Retries metrics.Counter
	// Dropped counts blocks evicted from the full queue (drop-oldest) or
	// abandoned after the retry budget.
	Dropped metrics.Counter
	// SendErrors counts individual failed HTTP attempts.
	SendErrors metrics.Counter
	// BytesSent counts compressed bytes acknowledged by the sink.
	BytesSent metrics.Counter
}

// Exporter pushes registry snapshots to an HTTP sink. Create with
// NewExporter, stop with Close (which flushes a final snapshot and drains
// the queue).
type Exporter struct {
	cfg    ExporterConfig
	reg    *Registry
	client *http.Client
	queue  chan []byte
	stop   chan struct{}
	wg     sync.WaitGroup
	m      ExporterMetrics

	// enqMu serialises the evict-then-enqueue dance so two producers
	// cannot both evict for one free slot.
	enqMu sync.Mutex
}

var exporterCounters = []counterFamily[ExporterMetrics]{
	{Declare(KindCounter, "gsalert_exporter_scrapes_total", "Registry snapshots rendered for push."), func(m *ExporterMetrics) *metrics.Counter { return &m.Scrapes }},
	{Declare(KindCounter, "gsalert_exporter_scrape_errors_total", "Snapshot renders or compressions that failed."), func(m *ExporterMetrics) *metrics.Counter { return &m.ScrapeErrors }},
	{Declare(KindCounter, "gsalert_exporter_sent_total", "Snapshot blocks acknowledged by the sink."), func(m *ExporterMetrics) *metrics.Counter { return &m.Sent }},
	{Declare(KindCounter, "gsalert_exporter_retries_total", "Send re-attempts after a failure."), func(m *ExporterMetrics) *metrics.Counter { return &m.Retries }},
	{Declare(KindCounter, "gsalert_exporter_dropped_total", "Blocks lost to queue eviction or exhausted retries."), func(m *ExporterMetrics) *metrics.Counter { return &m.Dropped }},
	{Declare(KindCounter, "gsalert_exporter_send_errors_total", "Individual failed HTTP attempts."), func(m *ExporterMetrics) *metrics.Counter { return &m.SendErrors }},
	{Declare(KindCounter, "gsalert_exporter_sent_bytes_total", "Compressed bytes acknowledged by the sink."), func(m *ExporterMetrics) *metrics.Counter { return &m.BytesSent }},
}

var exporterQueueDepth = Declare(KindGauge, "gsalert_exporter_queue_depth", "Compressed blocks awaiting send.")

// NewExporter starts the push pipeline against reg and registers its
// self-monitoring series there.
func NewExporter(reg *Registry, cfg ExporterConfig) (*Exporter, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	e := &Exporter{
		cfg:    cfg,
		reg:    reg,
		client: &http.Client{Timeout: cfg.Timeout},
		queue:  make(chan []byte, cfg.QueueSize),
		stop:   make(chan struct{}),
	}
	registerCounters(reg, &e.m, exporterCounters)
	reg.Func(exporterQueueDepth, func() float64 { return float64(len(e.queue)) })

	e.wg.Add(2)
	go e.collectLoop()
	go e.sendLoop()
	return e, nil
}

func (e *Exporter) collectLoop() {
	defer e.wg.Done()
	defer close(e.queue) // the sender drains what is left, then exits
	t := time.NewTicker(e.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			e.snapshot()
		case <-e.stop:
			e.snapshot() // final flush so short-lived processes still report
			return
		}
	}
}

// snapshot renders the registry, compresses it, and enqueues the block,
// evicting the oldest waiting block when the queue is full.
func (e *Exporter) snapshot() {
	e.m.Scrapes.Inc()
	var raw bytes.Buffer
	if err := e.reg.WritePrometheus(&raw); err != nil {
		e.m.ScrapeErrors.Inc()
		return
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw.Bytes()); err != nil {
		e.m.ScrapeErrors.Inc()
		return
	}
	if err := zw.Close(); err != nil {
		e.m.ScrapeErrors.Inc()
		return
	}

	e.enqMu.Lock()
	defer e.enqMu.Unlock()
	for {
		select {
		case e.queue <- buf.Bytes():
			return
		default:
		}
		select {
		case _, ok := <-e.queue:
			if !ok {
				return // closed under us; block is lost with the pipeline
			}
			e.m.Dropped.Inc()
		default:
		}
	}
}

func (e *Exporter) sendLoop() {
	defer e.wg.Done()
	for block := range e.queue {
		e.send(block)
	}
}

func (e *Exporter) send(block []byte) {
	for attempt := 0; ; attempt++ {
		if err := e.post(block); err == nil {
			e.m.Sent.Inc()
			e.m.BytesSent.Add(int64(len(block)))
			return
		}
		e.m.SendErrors.Inc()
		if attempt >= e.cfg.MaxRetries {
			e.m.Dropped.Inc()
			return
		}
		e.m.Retries.Inc()
		backoff := e.cfg.RetryBase << attempt
		select {
		case <-time.After(backoff):
		case <-e.stop:
			// Shutting down: one immediate last try, then give up.
			if err := e.post(block); err != nil {
				e.m.SendErrors.Inc()
				e.m.Dropped.Inc()
			} else {
				e.m.Sent.Inc()
				e.m.BytesSent.Add(int64(len(block)))
			}
			return
		}
	}
}

func (e *Exporter) post(block []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), e.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.cfg.URL, bytes.NewReader(block))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", TextContentType)
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("obs: sink %q: http %d", e.cfg.URL, resp.StatusCode)
	}
	return nil
}

// Close flushes a final snapshot, drains the queue, and stops the
// pipeline.
func (e *Exporter) Close() {
	select {
	case <-e.stop:
		return // already closed
	default:
	}
	close(e.stop)
	e.wg.Wait()
}
