package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"github.com/gsalert/gsalert/internal/health"
)

// cmdHealth fetches /healthz (and /readyz) from a server's ops endpoint (the
// handlers mounted by -health) and renders the component/rule breakdown in
// the same style as cmdTrace.
func cmdHealth(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	ops := fs.String("ops", "127.0.0.1:8080", "ops endpoint address (-metrics-addr) of a gs-server or gds-server started with -health")
	showReady := fs.Bool("ready", true, "also probe /readyz and print the readiness verdict")
	firingOnly := fs.Bool("firing", false, "only print rules that are pending or firing")
	_ = fs.Parse(args)

	st, code, err := fetchHealthz(ctx, *ops)
	if err != nil {
		return err
	}

	fmt.Printf("health %s  %s  (/healthz %d)\n", *ops, st.State, code)
	for _, comp := range st.Components {
		marker := " "
		if comp.State != health.Healthy {
			marker = "!"
		}
		fmt.Printf(" %s%-10s %-9s", marker, comp.Name, comp.State)
		if !comp.Since.IsZero() {
			fmt.Printf("  since %s (%s ago)", comp.Since.Format("15:04:05"), formatDur(time.Since(comp.Since).Truncate(time.Second)))
		}
		fmt.Println()
	}
	shown := 0
	for _, r := range st.Rules {
		if *firingOnly && r.State == health.RuleInactive {
			continue
		}
		shown++
		var extra []string
		if r.Severity != "" {
			extra = append(extra, "severity="+r.Severity)
		}
		extra = append(extra, fmt.Sprintf("value=%g", r.Value))
		fmt.Printf("    %-26s %-9s component=%-10s %s\n",
			r.Name, r.State, r.Component, strings.Join(extra, " "))
	}
	if shown == 0 && *firingOnly {
		fmt.Println("    no rules pending or firing")
	}

	if *showReady {
		ready, body, code, err := fetchReadyz(ctx, *ops)
		if err != nil {
			return err
		}
		if ready {
			fmt.Printf("ready %s  ok  (/readyz %d)\n", *ops, code)
		} else {
			fmt.Printf("ready %s  NOT READY  (/readyz %d)\n", *ops, code)
			for _, c := range body.Checks {
				status := "ok"
				if !c.OK {
					status = c.Err
				}
				fmt.Printf("    %-20s %s\n", c.Name, status)
			}
		}
	}
	return nil
}

func fetchHealthz(ctx context.Context, ops string) (health.Status, int, error) {
	var st health.Status
	u := url.URL{Scheme: "http", Host: ops, Path: "/healthz"}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return st, 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	// 503 is a valid answer (critical): still carries the full status body.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return st, resp.StatusCode, fmt.Errorf("GET %s: %s (is the server running with -health?)", u.String(), resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, resp.StatusCode, fmt.Errorf("decode /healthz response: %w", err)
	}
	return st, resp.StatusCode, nil
}

type readyzBody struct {
	Ready  bool                     `json:"ready"`
	Checks []health.ReadinessResult `json:"checks"`
}

func fetchReadyz(ctx context.Context, ops string) (bool, readyzBody, int, error) {
	var body readyzBody
	u := url.URL{Scheme: "http", Host: ops, Path: "/readyz"}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return false, body, 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false, body, 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode == http.StatusOK {
		return true, body, resp.StatusCode, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return false, body, resp.StatusCode, fmt.Errorf("decode /readyz response: %w", err)
	}
	return false, body, resp.StatusCode, nil
}
