// Command gds-server runs one Greenstone Directory Service node (paper
// §4.1/§6) over HTTP. Nodes form a stratum tree; give non-root nodes their
// parent's identity and address.
//
// Example of a two-node tree:
//
//	gds-server -id gds-root -addr 127.0.0.1:7001 -stratum 1
//	gds-server -id gds-nz   -addr 127.0.0.1:7002 -stratum 2 \
//	           -parent-id gds-root -parent-addr 127.0.0.1:7001
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/gsalert/gsalert/internal/gds"
	"github.com/gsalert/gsalert/internal/obs"
	"github.com/gsalert/gsalert/internal/ops"
	"github.com/gsalert/gsalert/internal/transport"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		id         = flag.String("id", "gds-1", "node identifier")
		addr       = flag.String("addr", "127.0.0.1:7001", "listen address")
		stratum    = flag.Int("stratum", 1, "stratum of this node (1 = primary)")
		parentID   = flag.String("parent-id", "", "parent node identifier (non-root nodes)")
		parentAddr = flag.String("parent-addr", "", "parent node address (non-root nodes)")
	)
	// The ops plane (internal/ops, docs/OBSERVABILITY.md): the flags shared
	// with gs-server, plus -trace. A directory node never samples — it
	// records route-hop spans for contexts the origin server already sampled
	// — so the only tracing decision here is on/off; and it has no pipeline
	// to dogfood meta-alerts into, so its health plane is /healthz + /readyz
	// + ALERTS series only.
	var ocfg ops.Config
	ocfg.RegisterFlags(flag.CommandLine)
	flag.BoolVar(&ocfg.Trace, "trace", false, "record route-hop spans for sampled events passing through this node, served at GET /traces on the ops endpoint")
	flag.Parse()

	tr := transport.NewHTTP()
	defer func() { _ = tr.Close() }()

	node, err := gds.NewNode(*id, *addr, *stratum, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gds-server: %v\n", err)
		return 1
	}
	defer func() { _ = node.Close() }()

	ocfg.Service, ocfg.LogSink = *id, os.Stderr
	ocfg.Stats = func() any { return node.Snapshot() }
	plane, err := ops.Start(ocfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gds-server: %v\n", err)
		return 1
	}
	defer plane.Close()
	plane.WireNode(node)

	// The node's dissemination counters, per-link digest tables and
	// transport wire counters, scrapeable and/or pushed.
	obs.RegisterGDSNode(plane.Registry, node)
	obs.RegisterHTTPTransport(plane.Registry, tr)
	obs.RegisterGoRuntime(plane.Registry)
	var parentAttached atomic.Bool
	if eng := plane.Health; eng != nil {
		eng.AddReadiness("node", func() error { return nil })
		if *parentAddr != "" {
			eng.AddReadiness("parent-attached", func() error {
				if !parentAttached.Load() {
					return errors.New("not attached to parent " + *parentID)
				}
				return nil
			})
		}
	}
	if err := plane.Serve(); err != nil {
		fmt.Fprintf(os.Stderr, "gds-server: %v\n", err)
		return 1
	}

	if *parentAddr != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := node.AttachToParent(ctx, *parentID, *parentAddr)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gds-server: attach to parent: %v\n", err)
			return 1
		}
		parentAttached.Store(true)
		fmt.Printf("gds-server %s (stratum %d) attached to %s at %s\n", *id, *stratum, *parentID, *parentAddr)
	} else {
		fmt.Printf("gds-server %s (stratum %d) running as root\n", *id, *stratum)
	}
	fmt.Printf("listening on %s\n", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return 0
}
