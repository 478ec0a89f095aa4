package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the control-plane exposition golden (testdata) from this build")

// scriptRoute is one chain's installed route after a fabric round.
type scriptRoute struct {
	chain              uint16
	pathLen, crossHops int
	replaced           bool
}

// scriptRound is one fabric reconcile round: health, blackholed chains
// and committed switch programs, whether it failed, and the installed
// routes after it (a failed round keeps the routes it found).
type scriptRound struct {
	alive, switches, blackholed, commits int
	failed                               bool
	routes                               []scriptRoute
}

// controlScript is one deterministic control-plane history: three
// builds and two hot swaps; three applies (the second a proved no-op),
// a rollback and a dry run; and five fabric rounds over chains 10, 20
// and 30 — the initial deploy, two failed rounds after switch 2 dies,
// the round that heals them and blackholes chain 30, and a no-op.
var controlScript = struct {
	builds  [][3]int64 // hits, misses, ns
	swaps   [][2]int   // entry ops, programs
	applies []struct {
		adds, removes, updates int
		noop                   bool
		ns                     int64
	}
	rounds []scriptRound
}{
	builds: [][3]int64{{0, 5, 1_200_000}, {3, 2, 400_000}, {5, 0, 90_000}},
	swaps:  [][2]int{{14, 2}, {3, 0}},
	applies: []struct {
		adds, removes, updates int
		noop                   bool
		ns                     int64
	}{{2, 0, 0, false, 2_500_000}, {0, 0, 0, true, 120_000}, {0, 1, 1, false, 700_000}},
	rounds: []scriptRound{
		{alive: 3, switches: 3, commits: 3, routes: []scriptRoute{{10, 2, 1, true}, {20, 1, 0, true}, {30, 3, 2, true}}},
		{alive: 2, switches: 3, failed: true, routes: []scriptRoute{{10, 2, 1, false}, {20, 1, 0, false}, {30, 3, 2, false}}},
		{alive: 2, switches: 3, failed: true, routes: []scriptRoute{{10, 2, 1, false}, {20, 1, 0, false}, {30, 3, 2, false}}},
		{alive: 2, switches: 3, blackholed: 1, commits: 2, routes: []scriptRoute{{10, 2, 1, false}, {20, 2, 1, true}}},
		{alive: 2, switches: 3, blackholed: 1, routes: []scriptRoute{{10, 2, 1, false}, {20, 2, 1, false}}},
	},
}

// scriptedControl feeds controlScript into one control-plane set.
func scriptedControl() *Control {
	c := NewControl()
	for _, b := range controlScript.builds {
		c.RecordBuild(int(b[0]), int(b[1]), b[2])
	}
	for _, s := range controlScript.swaps {
		c.RecordSwap(s[0], s[1])
	}
	for _, a := range controlScript.applies {
		c.RecordApply(a.adds, a.removes, a.updates, a.noop, a.ns)
	}
	c.RecordRollback()
	c.RecordDryRun()
	for _, r := range controlScript.rounds {
		round := Round{Alive: r.alive, Switches: r.switches, Blackholed: r.blackholed, Commits: r.commits, Failed: r.failed}
		for _, rt := range r.routes {
			round.Routes = append(round.Routes, Route{Chain: rt.chain, PathLen: rt.pathLen, CrossHops: rt.crossHops, Replaced: rt.replaced})
		}
		c.RecordRound(round)
	}
	return c
}

// TestControlExpositionGolden pins the control-plane exposition — every
// dejavu_rebuild_*, dejavu_apply_* and dejavu_fabric_* family with its
// help, kind, label sets and values — for controlScript
// (testdata/control.prom, rewritten with -update). Chain 30, blackholed
// by the fourth round, keeps its replacement count and has no route
// gauges.
func TestControlExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	reg := NewRegistry()
	reg.Register(scriptedControl())
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "control.prom")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("control-plane exposition diverged from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// samples indexes a gather pass by family name and label set.
func samples(fams []Family) map[string]float64 {
	out := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Samples {
			out[f.Name+"{"+s.Labels+"}"] = s.Value
		}
	}
	return out
}

// TestApplyCounters drives the intent-plane recordings and checks the
// counters and gauges they feed.
func TestApplyCounters(t *testing.T) {
	c := NewControl()
	c.RecordApply(2, 1, 1, false, 5000)
	c.RecordApply(0, 0, 0, true, 1000)
	c.RecordRollback()
	c.RecordDryRun()

	got := samples(c.Gather())
	for name, want := range map[string]float64{
		"dejavu_apply_total{}": 2, "dejavu_apply_noop_total{}": 1,
		"dejavu_apply_rollback_total{}": 1, "dejavu_apply_dryrun_total{}": 1,
		"dejavu_apply_last_convergence_ns{}": 1000,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

// TestApplyGather checks the exported dejavu_apply_* families: names,
// kinds, and that the per-kind action split survives into labels.
func TestApplyGather(t *testing.T) {
	c := NewControl()
	c.RecordApply(3, 2, 1, false, 7000)

	fams := c.Gather()
	byName := make(map[string]Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	wantCounters := []string{
		"dejavu_apply_total", "dejavu_apply_noop_total",
		"dejavu_apply_rollback_total", "dejavu_apply_dryrun_total",
		"dejavu_apply_actions_total", "dejavu_apply_convergence_ns_total",
	}
	for _, name := range wantCounters {
		f, ok := byName[name]
		if !ok {
			t.Errorf("family %s missing", name)
			continue
		}
		if f.Kind != KindCounter {
			t.Errorf("%s kind = %v, want counter", name, f.Kind)
		}
	}
	for _, name := range []string{"dejavu_apply_last_convergence_ns", "dejavu_apply_last_actions"} {
		f, ok := byName[name]
		if !ok {
			t.Errorf("family %s missing", name)
			continue
		}
		if f.Kind != KindGauge {
			t.Errorf("%s kind = %v, want gauge", name, f.Kind)
		}
	}

	got := samples(fams)
	if got[`dejavu_apply_actions_total{kind="add"}`] != 3 || got[`dejavu_apply_actions_total{kind="remove"}`] != 2 ||
		got[`dejavu_apply_actions_total{kind="update"}`] != 1 {
		t.Errorf("action samples = %v, want add=3 remove=2 update=1", got)
	}
	if v := got["dejavu_apply_last_actions{}"]; v != 6 {
		t.Errorf("last actions = %v, want 6", v)
	}
}

// TestControlGatherRacesRecording scrapes while every producer records:
// under -race, no reading or per-chain state is unguarded.
func TestControlGatherRacesRecording(t *testing.T) {
	c := NewControl()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			c.RecordBuild(1, 1, 10)
			c.RecordSwap(2, 1)
			c.RecordApply(1, 0, 0, false, 10)
			c.RecordRound(Round{Alive: 3, Switches: 3, Commits: i % 2, Failed: i%5 == 0,
				Routes: []Route{{Chain: uint16(i % 4), PathLen: 2, CrossHops: 1, Replaced: true}}})
		}
	}()
	for {
		select {
		case <-done:
			if got := samples(c.Gather())["dejavu_fabric_reconciles_total{}"]; got != 200 {
				t.Errorf("reconciles = %v, want 200", got)
			}
			return
		default:
			c.Gather()
		}
	}
}
