package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/gsalert/gsalert/internal/transport"
)

// Fabric is the surface a deployment exposes for the engine to break it.
// The experiment harness implements it over sim.Cluster (kills route to the
// replica pair, partitions to the memory transport, injections to the
// cluster's transport.FaultInjector); a real deployment could implement it
// over process supervisors and tc/iptables.
type Fabric interface {
	// KillPrimary takes the named server's primary off the network and
	// promotes its standby.
	KillPrimary(ctx context.Context, server string) error
	// Partition cuts the link between two named endpoints; Heal restores it.
	Partition(a, b string) error
	Heal(a, b string) error
	// SlowStandby degrades the named server's replication link;
	// HealStandby restores it and forces the standby to catch up.
	SlowStandby(server string, drop float64, latency time.Duration) error
	HealStandby(ctx context.Context, server string) error
	// FlipMode switches every serving server's dissemination mode.
	FlipMode(ctx context.Context, mode string) error
	// Inject installs a transport fault rule; ClearInject removes all
	// engine-installed rules.
	Inject(rule transport.FaultRule) error
	ClearInject() error
}

// Applied records one fault the engine has applied.
type Applied struct {
	Fault Fault
	// Round is the workload round the engine was advanced to when the
	// fault fired (>= Fault.At; equal unless rounds were skipped).
	Round int
}

// Engine walks a validated schedule against a Fabric. The driving loop
// calls AdvanceTo after each workload round; every fault whose round has
// come fires, in schedule order. The engine is single-caller (the loop).
type Engine struct {
	fabric  Fabric
	pending []Fault
	applied []Applied
}

// NewEngine validates the schedule and binds it to a fabric.
func NewEngine(s Schedule, f Fabric) (*Engine, error) {
	if f == nil {
		return nil, fmt.Errorf("chaos: nil fabric")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Engine{fabric: f, pending: s.Sorted()}, nil
}

// AdvanceTo applies every pending fault scheduled at or before round,
// returning those applied. The first fabric error aborts (a chaos run whose
// faults fail to apply is not the experiment it claims to be).
func (e *Engine) AdvanceTo(ctx context.Context, round int) ([]Applied, error) {
	var fired []Applied
	for len(e.pending) > 0 && e.pending[0].At <= round {
		f := e.pending[0]
		e.pending = e.pending[1:]
		if err := e.apply(ctx, f); err != nil {
			return fired, fmt.Errorf("chaos: @%d %s: %w", f.At, f.Kind, err)
		}
		a := Applied{Fault: f, Round: round}
		e.applied = append(e.applied, a)
		fired = append(fired, a)
	}
	return fired, nil
}

func (e *Engine) apply(ctx context.Context, f Fault) error {
	switch f.Kind {
	case KindKillPrimary:
		return e.fabric.KillPrimary(ctx, f.Target)
	case KindPartition:
		return e.fabric.Partition(f.A, f.B)
	case KindHeal:
		return e.fabric.Heal(f.A, f.B)
	case KindSlowStandby:
		return e.fabric.SlowStandby(f.Target, f.DropRate, f.Latency)
	case KindHealStandby:
		return e.fabric.HealStandby(ctx, f.Target)
	case KindFlipMode:
		return e.fabric.FlipMode(ctx, f.Target)
	case KindInject:
		return e.fabric.Inject(transport.FaultRule{
			From: f.A, To: f.B, TypePrefix: f.TypePrefix,
			DropRate: f.DropRate, ExtraLatency: f.Latency,
		})
	case KindClearInject:
		return e.fabric.ClearInject()
	default:
		return fmt.Errorf("unknown kind %q", f.Kind)
	}
}

// Log returns the applied-fault record in firing order.
func (e *Engine) Log() []Applied { return append([]Applied(nil), e.applied...) }

// GenConfig parameterises random schedule generation.
type GenConfig struct {
	// Seed drives every random choice.
	Seed int64
	// Rounds is the workload length the schedule must fit into (>= 8).
	Rounds int
	// Primary names the server whose replica pair the kill and the
	// slow/heal-standby faults target.
	Primary string
	// LinkA and LinkB name the partitionable link's endpoints.
	LinkA, LinkB string
	// InjectTypePrefix scopes the latency-injection window (e.g. "gs.").
	InjectTypePrefix string
}

// Generate produces a random valid schedule containing at least one
// primary kill, one partition (healed), one mode flip and one degraded
// standby window (healed before the kill), plus a latency-injection
// window — the full vocabulary, ordered to respect the validity
// constraints. Same seed, same schedule.
func Generate(cfg GenConfig) (Schedule, error) {
	if cfg.Rounds < 8 {
		return Schedule{}, fmt.Errorf("chaos: generate needs >= 8 rounds, got %d", cfg.Rounds)
	}
	if cfg.Primary == "" || cfg.LinkA == "" || cfg.LinkB == "" {
		return Schedule{}, fmt.Errorf("chaos: generate needs a primary and a link")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	last := cfg.Rounds - 1
	var s Schedule

	// Degrade the standby early, heal it, then kill the primary: the
	// promotion invariants are only claimable for a caught-up standby.
	slowAt := rng.Intn(last / 4)
	healStandbyAt := slowAt + 1 + rng.Intn(last/4)
	killAt := healStandbyAt + 1 + rng.Intn(maxI(1, last-1-healStandbyAt))
	s.Add(Fault{At: slowAt, Kind: KindSlowStandby, Target: cfg.Primary, DropRate: 1})
	s.Add(Fault{At: healStandbyAt, Kind: KindHealStandby, Target: cfg.Primary})
	s.Add(Fault{At: killAt, Kind: KindKillPrimary, Target: cfg.Primary})

	// A partition window, healed before the end.
	cutAt := rng.Intn(last - 2)
	healAt := cutAt + 1 + rng.Intn(last-1-cutAt)
	s.Add(Fault{At: cutAt, Kind: KindPartition, A: cfg.LinkA, B: cfg.LinkB})
	s.Add(Fault{At: healAt, Kind: KindHeal, A: cfg.LinkA, B: cfg.LinkB})

	// One or two mode flips.
	modes := []string{"multicast", "content", "broadcast"}
	flips := 1 + rng.Intn(2)
	for i := 0; i < flips; i++ {
		s.Add(Fault{At: rng.Intn(cfg.Rounds), Kind: KindFlipMode, Target: modes[rng.Intn(len(modes))]})
	}

	// A latency-injection window over the chosen traffic slice.
	injAt := rng.Intn(last)
	s.Add(Fault{At: injAt, Kind: KindInject, TypePrefix: cfg.InjectTypePrefix,
		Latency: time.Duration(1+rng.Intn(5)) * time.Millisecond})
	s.Add(Fault{At: injAt + 1 + rng.Intn(maxI(1, last-injAt)), Kind: KindClearInject})

	if err := s.Validate(); err != nil {
		return Schedule{}, fmt.Errorf("chaos: generated schedule invalid: %w", err)
	}
	return s, nil
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
