package chaos

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/transport"
)

const sampleSchedule = `
# degraded standby window, healed before the kill
@1 slow-standby C002 drop=1
@4 heal-standby C002

# a directory subtree drops off and comes back
@2 partition gds0 gds3
@5 heal gds0 gds3

@6 kill-primary C002
@8 flip-mode multicast
@10 flip-mode content

# latency injection over the alerting traffic
@7 inject from=* type=gs. latency=2ms
@9 clear-inject
`

func TestParseScheduleRoundTrip(t *testing.T) {
	s, err := ParseSchedule(sampleSchedule)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if s.Len() != 9 {
		t.Fatalf("parsed %d faults, want 9", s.Len())
	}
	counts := s.Counts()
	for kind, want := range map[Kind]int{
		KindKillPrimary: 1, KindPartition: 1, KindHeal: 1,
		KindSlowStandby: 1, KindHealStandby: 1, KindFlipMode: 2,
		KindInject: 1, KindClearInject: 1,
	} {
		if counts[kind] != want {
			t.Fatalf("counts[%s] = %d, want %d", kind, counts[kind], want)
		}
	}
	// Render and reparse: the text format is canonical.
	again, err := ParseSchedule(s.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, s.String())
	}
	if again.String() != s.String() {
		t.Fatalf("round trip drifted:\n%s\nvs\n%s", s.String(), again.String())
	}
}

func TestParseScheduleRejects(t *testing.T) {
	for _, src := range []string{
		"kill-primary C002",           // missing @round
		"@2 partition gds0",           // one endpoint
		"@2 heal gds0 gds3",           // heal without partition
		"@2 partition gds0 gds3",      // partition never healed
		"@2 flip-mode carrier-pigeon", // unknown mode
		"@2 explode C002",             // unknown kind
		"@1 slow-standby C002 drop=1", // standby never healed
		"@1 slow-standby C002\n@2 kill-primary C002\n@3 heal-standby C002", // kill while lagging
		"@1 inject drop=1",                  // loss never cleared
		"@1 inject",                         // no effect
		"@1 inject drop=2\n@2 clear-inject", // rate out of range
		"@-1 flip-mode content",             // negative round
	} {
		if _, err := ParseSchedule(src); err == nil {
			t.Errorf("ParseSchedule(%q) accepted invalid schedule", src)
		}
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	cfg := GenConfig{Seed: 9, Rounds: 12, Primary: "C002", LinkA: "gds0", LinkB: "gds3", InjectTypePrefix: "gs."}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatalf("generate again: %v", err)
	}
	if a.String() != b.String() {
		t.Fatalf("same seed produced different schedules:\n%s\nvs\n%s", a.String(), b.String())
	}
	counts := a.Counts()
	if counts[KindKillPrimary] < 1 || counts[KindPartition] < 1 || counts[KindFlipMode] < 1 {
		t.Fatalf("generated schedule misses required composition: %v\n%s", counts, a.String())
	}
	// Different seeds explore the space.
	c, err := Generate(GenConfig{Seed: 10, Rounds: 12, Primary: "C002", LinkA: "gds0", LinkB: "gds3"})
	if err != nil {
		t.Fatalf("generate seed 10: %v", err)
	}
	if c.String() == a.String() {
		t.Fatalf("seeds 9 and 10 produced identical schedules")
	}
}

// recordingFabric logs fabric calls in order.
type recordingFabric struct {
	calls []string
	fail  string // kind that errors
}

func (f *recordingFabric) note(s string) error {
	f.calls = append(f.calls, s)
	if f.fail != "" && strings.HasPrefix(s, f.fail) {
		return fmt.Errorf("boom")
	}
	return nil
}

func (f *recordingFabric) KillPrimary(_ context.Context, srv string) error {
	return f.note("kill-primary " + srv)
}
func (f *recordingFabric) Partition(a, b string) error { return f.note("partition " + a + " " + b) }
func (f *recordingFabric) Heal(a, b string) error      { return f.note("heal " + a + " " + b) }
func (f *recordingFabric) SlowStandby(srv string, drop float64, lat time.Duration) error {
	return f.note(fmt.Sprintf("slow-standby %s %g %s", srv, drop, lat))
}
func (f *recordingFabric) HealStandby(_ context.Context, srv string) error {
	return f.note("heal-standby " + srv)
}
func (f *recordingFabric) FlipMode(_ context.Context, mode string) error {
	return f.note("flip-mode " + mode)
}
func (f *recordingFabric) Inject(r transport.FaultRule) error { return f.note("inject " + r.String()) }
func (f *recordingFabric) ClearInject() error                 { return f.note("clear-inject") }

func TestEngineAppliesInOrder(t *testing.T) {
	s, err := ParseSchedule(sampleSchedule)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fab := &recordingFabric{}
	eng, err := NewEngine(s, fab)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	ctx := context.Background()
	total := 0
	for round := 0; round < 12; round++ {
		fired, err := eng.AdvanceTo(ctx, round)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, a := range fired {
			if a.Fault.At != round {
				t.Fatalf("fault @%d fired at round %d", a.Fault.At, round)
			}
		}
		total += len(fired)
	}
	if total != s.Len() || len(eng.pending) != 0 {
		t.Fatalf("applied %d of %d, %d remaining", total, s.Len(), len(eng.pending))
	}
	want := []string{
		"slow-standby C002 1 0s",
		"partition gds0 gds3",
		"heal-standby C002",
		"heal gds0 gds3",
		"kill-primary C002",
		"inject *->* type=gs. latency=2ms",
		"flip-mode multicast",
		"clear-inject",
		"flip-mode content",
	}
	if len(fab.calls) != len(want) {
		t.Fatalf("calls %v", fab.calls)
	}
	for i, w := range want {
		if fab.calls[i] != w {
			t.Fatalf("call %d = %q, want %q\nall: %v", i, fab.calls[i], w, fab.calls)
		}
	}
	if got := len(eng.Log()); got != s.Len() {
		t.Fatalf("log has %d entries, want %d", got, s.Len())
	}
}

func TestEngineSkippedRoundsStillFire(t *testing.T) {
	var s Schedule
	s.Add(Fault{At: 1, Kind: KindFlipMode, Target: "multicast"})
	s.Add(Fault{At: 3, Kind: KindFlipMode, Target: "content"})
	fab := &recordingFabric{}
	eng, err := NewEngine(s, fab)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	fired, err := eng.AdvanceTo(context.Background(), 10)
	if err != nil {
		t.Fatalf("advance: %v", err)
	}
	if len(fired) != 2 || fired[0].Round != 10 {
		t.Fatalf("fired %v", fired)
	}
}

func TestEngineAbortsOnFabricError(t *testing.T) {
	var s Schedule
	s.Add(Fault{At: 0, Kind: KindFlipMode, Target: "multicast"})
	s.Add(Fault{At: 0, Kind: KindFlipMode, Target: "content"})
	fab := &recordingFabric{fail: "flip-mode multicast"}
	eng, err := NewEngine(s, fab)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if _, err := eng.AdvanceTo(context.Background(), 0); err == nil {
		t.Fatalf("want error from failing fabric")
	}
	if len(fab.calls) != 1 {
		t.Fatalf("engine kept applying after an error: %v", fab.calls)
	}
}
