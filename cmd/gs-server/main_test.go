package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/trace"
)

// get fetches one ops-endpoint path.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: http %d\n%s", url, resp.StatusCode, body)
	}
	return body
}

// TestAssembledServerEndToEnd drives the binary's real assembly — flags in,
// listeners up — and checks what only a live server shows: one published
// event yields ONE connected span tree from publish through notify (PR 8
// shipped a pipeline built without the tracer; its flush/notify spans were
// simply absent), and the ops endpoint serves a parseable /metrics and a
// decodable /stats.
func TestAssembledServerEndToEnd(t *testing.T) {
	o, err := parseFlags([]string{
		"-name", "T", "-addr", "127.0.0.1:0",
		"-gds", "127.0.0.1:1", // nothing listens: registration fails fast, the server runs solitary
		"-metrics-addr", "127.0.0.1:0", "-trace-sample", "1", "-log-level", "off",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := assemble(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()

	got := make(chan core.Notification, 1)
	s.svc.RegisterNotifier("alice", core.NotifierFunc(func(n core.Notification) { got <- n }))
	if _, err := s.svc.Subscribe("alice", profile.MustParse(`collection = "T.C"`)); err != nil {
		t.Fatal(err)
	}
	ev := event.New("ev-1", event.TypeDocumentsAdded, event.QName{Host: "T", Collection: "C"}, 1,
		[]event.DocRef{{ID: "d1"}}, time.Now())
	if _, err := s.svc.PublishBuild(ctx, &collection.BuildResult{Events: []*event.Event{ev}}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-got:
		if n.Event.ID != "ev-1" {
			t.Fatalf("notified of %q, want ev-1", n.Event.ID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("attached client never notified")
	}
	if err := s.svc.DrainDeliveries(ctx); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.plane.Addr().String()

	// /traces: the notify span finishes just after the sink returns, so poll
	// briefly for the full tree.
	want := []string{trace.StagePublish, trace.StageMatch, trace.StageQueueWait, trace.StageFlush, trace.StageNotify}
	var traces struct {
		Traces []*trace.Trace `json:"traces"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := json.Unmarshal(get(t, base+"/traces"), &traces); err != nil {
			t.Fatal(err)
		}
		if len(traces.Traces) == 1 && missingStages(traces.Traces[0], want) == "" || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(traces.Traces) != 1 {
		t.Fatalf("/traces holds %d traces for one publish, want 1", len(traces.Traces))
	}
	tr := traces.Traces[0]
	if missing := missingStages(tr, want); missing != "" {
		t.Errorf("span tree lacks %s (a component built without the tracer)", missing)
	}
	// Connected: exactly one root, and every other span's parent is in the tree.
	ids := map[string]bool{}
	for _, sp := range tr.Spans {
		ids[sp.SpanID] = true
	}
	roots := 0
	for _, sp := range tr.Spans {
		switch {
		case sp.ParentID == "":
			roots++
		case !ids[sp.ParentID]:
			t.Errorf("span %s (%s) hangs off unknown parent %s", sp.SpanID, sp.Name, sp.ParentID)
		}
	}
	if roots != 1 || !tr.Complete {
		t.Errorf("span tree has %d roots (complete=%v), want one connected tree", roots, tr.Complete)
	}

	// /metrics: every sample line is `name{labels} value` with a numeric
	// value, under a TYPE line.
	families := 0
	sc := bufio.NewScanner(strings.NewReader(string(get(t, base+"/metrics"))))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			families++
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("/metrics: malformed sample line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Fatalf("/metrics: sample %q: %v", line, err)
		}
	}
	if families < 50 {
		t.Errorf("/metrics exposes %d families; the gs-server catalog has well over 50", families)
	}

	var stats struct {
		Service  core.ServiceStats
		Delivery struct{ Delivered int64 }
	}
	if err := json.Unmarshal(get(t, base+"/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Service.EventsPublished != 1 || stats.Delivery.Delivered != 1 {
		t.Errorf("/stats: EventsPublished=%d Delivered=%d, want 1 and 1",
			stats.Service.EventsPublished, stats.Delivery.Delivered)
	}
}

// missingStages names the wanted stages absent from the trace ("" = none).
func missingStages(tr *trace.Trace, want []string) string {
	have := map[string]bool{}
	for _, sp := range tr.Spans {
		have[sp.Name] = true
	}
	var missing []string
	for _, st := range want {
		if !have[st] {
			missing = append(missing, st)
		}
	}
	return strings.Join(missing, ", ")
}

// TestStatsAddrRetired pins the flag surface: -stats-addr was a pure alias
// of -metrics-addr (same mux) and is gone, not silently ignored.
func TestStatsAddrRetired(t *testing.T) {
	_, err := parseFlags([]string{"-stats-addr", "127.0.0.1:0"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -stats-addr") {
		t.Fatalf("parseFlags(-stats-addr) = %v, want an unknown-flag error", err)
	}
	if _, err := parseFlags([]string{"-metrics-addr", "127.0.0.1:0"}); err != nil {
		t.Fatal(fmt.Errorf("-metrics-addr must keep working: %w", err))
	}
}
