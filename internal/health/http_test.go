package health

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHealthzHandler checks body shape and the critical->503 status rule.
func TestHealthzHandler(t *testing.T) {
	src := newFakeSource()
	src.set("gsalert_replica_stream_lag", 0)
	clock := newTickClock()
	rs := mustRules(t, `
rule lag {
	component = delivery
	severity = critical
	expr = gsalert_replica_stream_lag > 10
}`)
	e := NewEngine(src, rs, Options{})
	e.TickAt(clock.Advance(time.Second))

	h := HealthzHandler(e)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthy /healthz = %d, want 200", rec.Code)
	}
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if st.State != Healthy || len(st.Rules) != 1 {
		t.Fatalf("decoded status wrong: %+v", st)
	}

	src.set("gsalert_replica_stream_lag", 50)
	e.TickAt(clock.Advance(time.Second))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("critical /healthz = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"critical"`) {
		t.Fatalf("critical body missing state name: %s", rec.Body.String())
	}
}

// TestReadyzHandler checks the 200/503 flip and the failing-check body.
func TestReadyzHandler(t *testing.T) {
	e := NewEngine(newFakeSource(), DefaultRules(), Options{})
	down := true
	e.AddReadiness("standby", func() error {
		if down {
			return errors.New("lagging")
		}
		return nil
	})
	h := ReadyzHandler(e)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("failing /readyz = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "lagging") {
		t.Fatalf("failing body missing check error: %s", rec.Body.String())
	}

	down = false
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "ok" {
		t.Fatalf("/readyz = %d %q, want 200 ok", rec.Code, rec.Body.String())
	}
}

// TestEndpointsMount checks the routes wire both paths onto a mux.
func TestEndpointsMount(t *testing.T) {
	e := NewEngine(newFakeSource(), DefaultRules(), Options{})
	mux := http.NewServeMux()
	for pattern, h := range Endpoints(e) {
		mux.Handle(pattern, h)
	}
	for _, path := range []string{"/healthz", "/readyz"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, rec.Code)
		}
	}
}
