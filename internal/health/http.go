package health

import (
	"encoding/json"
	"net/http"
)

// HealthzHandler serves the engine's Snapshot as JSON. Status code follows
// the worst component: 200 while healthy or degraded (the process is still
// doing useful work), 503 once any component is critical.
func HealthzHandler(e *Engine) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		st := e.Snapshot()
		w.Header().Set("Content-Type", "application/json")
		if st.State == Critical {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
}

// ReadyzHandler serves the readiness aggregate: 200 "ok" when every
// registered check passes, 503 with the failing checks as JSON otherwise.
// Load balancers and the chaos harness gate on this.
func ReadyzHandler(e *Engine) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ok, results := e.Readiness()
		if ok {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = w.Write([]byte("ok\n"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Ready  bool              `json:"ready"`
			Checks []ReadinessResult `json:"checks"`
		}{Ready: false, Checks: results})
	})
}

// Endpoints is the health plane's share of the ops mux: merge it into the
// routes handed to obs.ServeOps.
func Endpoints(e *Engine) map[string]http.Handler {
	return map[string]http.Handler{"/healthz": HealthzHandler(e), "/readyz": ReadyzHandler(e)}
}
