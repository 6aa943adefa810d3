// Package chaos provides a deterministic, seedable fault-schedule engine
// for the simulation harness: a schedule is an ordered list of faults
// (primary kills, directory-link partitions, slow/lagging standbys,
// routing-mode flips, transport error/latency injection) pinned to workload
// rounds, and an engine that applies due faults through a Fabric — the
// small surface a deployment (sim.Cluster in the experiment suite) exposes
// for breaking itself. Schedules render in a one-line-per-fault display
// form, can be generated randomly from a seed under the validity
// constraints (partitions heal, lagging standbys catch up before their
// primary is killed), and applied-fault logs make every chaos run
// reproducible and explainable.
package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Kind names a fault in the schedule vocabulary.
type Kind string

const (
	// KindKillPrimary kills the named server's primary and promotes its
	// standby (Target = server name).
	KindKillPrimary Kind = "kill-primary"
	// KindPartition cuts the link between two transport endpoints
	// (A, B = node names, e.g. two GDS nodes bounding a subtree).
	KindPartition Kind = "partition"
	// KindHeal restores a previously cut link (A, B as for KindPartition).
	KindHeal Kind = "heal"
	// KindSlowStandby degrades the named server's replication link
	// (Target = server name; DropRate/Latency shape the degradation).
	KindSlowStandby Kind = "slow-standby"
	// KindHealStandby restores the replication link and forces the lagging
	// standby to catch up (Target = server name).
	KindHealStandby Kind = "heal-standby"
	// KindFlipMode switches the dissemination mode of every serving server
	// (Target = "broadcast", "multicast" or "content").
	KindFlipMode Kind = "flip-mode"
	// KindInject installs a transport fault rule (A/B = from/to patterns,
	// TypePrefix, DropRate, Latency — the transport.FaultRule fields).
	KindInject Kind = "inject"
	// KindClearInject removes every installed transport fault rule.
	KindClearInject Kind = "clear-inject"
)

// kinds lists the vocabulary for validation and generation.
var kinds = map[Kind]bool{
	KindKillPrimary: true, KindPartition: true, KindHeal: true,
	KindSlowStandby: true, KindHealStandby: true, KindFlipMode: true,
	KindInject: true, KindClearInject: true,
}

// Modes a KindFlipMode fault may target.
var flipModes = map[string]bool{"broadcast": true, "multicast": true, "content": true}

// Fault is one scheduled intervention. At pins it to a workload round: the
// engine applies it after round At of the driving loop completes.
type Fault struct {
	// At is the workload round after which the fault fires (>= 0).
	At int
	// Kind selects the intervention.
	Kind Kind
	// A and B name the link ends (partition/heal) or the from/to patterns
	// (inject).
	A, B string
	// Target names the server (kill/slow/heal-standby) or mode (flip-mode).
	Target string
	// TypePrefix scopes an inject rule by message-type prefix.
	TypePrefix string
	// DropRate is the injected loss probability (slow-standby, inject).
	DropRate float64
	// Latency is the injected extra virtual latency (slow-standby, inject).
	Latency time.Duration
}

// String renders the fault in the schedule display form:
//
//	@<round> <kind> [args...]
//
// Positional args name link endpoints (partition/heal) or the target
// server/mode; key=value options (drop=, latency=, from=, to=, type=) shape
// slow-standby and inject faults.
func (f Fault) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "@%d %s", f.At, f.Kind)
	switch f.Kind {
	case KindPartition, KindHeal:
		fmt.Fprintf(&b, " %s %s", f.A, f.B)
	case KindKillPrimary, KindHealStandby, KindFlipMode:
		fmt.Fprintf(&b, " %s", f.Target)
	case KindSlowStandby:
		fmt.Fprintf(&b, " %s", f.Target)
		if f.DropRate > 0 {
			fmt.Fprintf(&b, " drop=%g", f.DropRate)
		}
		if f.Latency > 0 {
			fmt.Fprintf(&b, " latency=%s", f.Latency)
		}
	case KindInject:
		if f.A != "" {
			fmt.Fprintf(&b, " from=%s", f.A)
		}
		if f.B != "" {
			fmt.Fprintf(&b, " to=%s", f.B)
		}
		if f.TypePrefix != "" {
			fmt.Fprintf(&b, " type=%s", f.TypePrefix)
		}
		if f.DropRate > 0 {
			fmt.Fprintf(&b, " drop=%g", f.DropRate)
		}
		if f.Latency > 0 {
			fmt.Fprintf(&b, " latency=%s", f.Latency)
		}
	}
	return b.String()
}

// Schedule is an ordered fault list. The zero value is an empty schedule
// (a chaos run with an empty schedule is the failure-free baseline).
type Schedule struct {
	Faults []Fault
}

// Add appends a fault.
func (s *Schedule) Add(f Fault) { s.Faults = append(s.Faults, f) }

// Len reports the number of scheduled faults.
func (s Schedule) Len() int { return len(s.Faults) }

// Sorted returns the faults ordered by round, preserving the schedule
// order among faults sharing a round (a heal listed after a partition in
// the same round applies after it).
func (s Schedule) Sorted() []Fault {
	out := append([]Fault(nil), s.Faults...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Counts tallies faults by kind — the composition assertions of the soak
// acceptance bar ("at least one kill, one partition, one mode flip").
func (s Schedule) Counts() map[Kind]int {
	out := make(map[Kind]int, len(s.Faults))
	for _, f := range s.Faults {
		out[f.Kind]++
	}
	return out
}

// String renders the schedule in the display form, one fault per line in
// applied order.
func (s Schedule) String() string {
	var b strings.Builder
	for _, f := range s.Sorted() {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Validate checks structural validity: known kinds, rounds >= 0, modes in
// vocabulary, every partition healed, every slow-standby healed before its
// server's primary is killed (promoting a lagging standby would lose the
// un-replicated tail — the engine requires catch-up first), and message
// loss injection cleared before the schedule ends.
func (s Schedule) Validate() error {
	type link struct{ a, b string }
	openCuts := make(map[link]int)
	slow := make(map[string]int)   // server -> round slow-standby armed
	healed := make(map[string]int) // server -> round heal-standby applied
	openDrop := 0
	for i, f := range s.Sorted() {
		if !kinds[f.Kind] {
			return fmt.Errorf("chaos: fault %d: unknown kind %q", i, f.Kind)
		}
		if f.At < 0 {
			return fmt.Errorf("chaos: fault %d (%s): negative round %d", i, f.Kind, f.At)
		}
		switch f.Kind {
		case KindPartition:
			if f.A == "" || f.B == "" {
				return fmt.Errorf("chaos: fault %d: partition needs two endpoints", i)
			}
			openCuts[link{f.A, f.B}]++
		case KindHeal:
			if openCuts[link{f.A, f.B}] <= 0 {
				return fmt.Errorf("chaos: fault %d: heal %s %s without a prior partition", i, f.A, f.B)
			}
			openCuts[link{f.A, f.B}]--
		case KindSlowStandby:
			if f.Target == "" {
				return fmt.Errorf("chaos: fault %d: slow-standby needs a server", i)
			}
			slow[f.Target]++
		case KindHealStandby:
			if slow[f.Target] <= 0 {
				return fmt.Errorf("chaos: fault %d: heal-standby %s without a prior slow-standby", i, f.Target)
			}
			slow[f.Target]--
			healed[f.Target]++
		case KindKillPrimary:
			if f.Target == "" {
				return fmt.Errorf("chaos: fault %d: kill-primary needs a server", i)
			}
			if slow[f.Target] > 0 {
				return fmt.Errorf("chaos: fault %d: kill-primary %s while its standby is still lagging (heal-standby first)", i, f.Target)
			}
		case KindFlipMode:
			if !flipModes[f.Target] {
				return fmt.Errorf("chaos: fault %d: flip-mode target %q not in {broadcast, multicast, content}", i, f.Target)
			}
		case KindInject:
			if f.DropRate > 0 {
				openDrop++
			}
			if f.DropRate < 0 || f.DropRate > 1 {
				return fmt.Errorf("chaos: fault %d: inject drop rate %g outside [0,1]", i, f.DropRate)
			}
			if f.DropRate == 0 && f.Latency == 0 {
				return fmt.Errorf("chaos: fault %d: inject with neither drop nor latency", i)
			}
		case KindClearInject:
			openDrop = 0
		}
	}
	for l, n := range openCuts {
		if n > 0 {
			return fmt.Errorf("chaos: partition %s %s never healed", l.a, l.b)
		}
	}
	for srv, n := range slow {
		if n > 0 {
			return fmt.Errorf("chaos: slow-standby %s never healed", srv)
		}
	}
	if openDrop > 0 {
		return fmt.Errorf("chaos: %d loss-injecting rule(s) never cleared", openDrop)
	}
	return nil
}
