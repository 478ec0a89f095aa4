package fault

import (
	"reflect"
	"testing"

	"dejavu/internal/asic"
)

func fabricOpts() FabricScheduleOpts {
	return FabricScheduleOpts{
		Ticks:             40,
		Switches:          3,
		ProtectedSwitches: []int{0},
		Links: []FabricLink{
			{Sw: 0, Port: 10}, {Sw: 1, Port: 10}, {Sw: 0, Port: 11},
		},
		EventsPerTick: 0.8,
	}
}

func TestRandomFabricScheduleDeterministic(t *testing.T) {
	a := RandomFabricSchedule(7, fabricOpts())
	b := RandomFabricSchedule(7, fabricOpts())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fabric schedules")
	}
	c := RandomFabricSchedule(8, fabricOpts())
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical fabric schedules")
	}
	if len(a) == 0 {
		t.Fatal("seed 7 produced an empty schedule")
	}
}

func TestRandomFabricScheduleSelfConsistent(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 99} {
		sched := RandomFabricSchedule(seed, fabricOpts())
		dead := make(map[int]bool)
		cut := make(map[FabricLink]bool)
		for _, ev := range sched {
			switch ev.Kind {
			case SwitchKill:
				if ev.Switch == 0 {
					t.Fatalf("seed %d killed protected switch 0", seed)
				}
				if dead[ev.Switch] {
					t.Fatalf("seed %d killed already-dead switch %d", seed, ev.Switch)
				}
				dead[ev.Switch] = true
				// At most killable-1 = 1 dead at once here.
				if len(dead) > 1 {
					t.Fatalf("seed %d exceeded the dead-switch bound", seed)
				}
			case SwitchRevive:
				if !dead[ev.Switch] {
					t.Fatalf("seed %d revived alive switch %d", seed, ev.Switch)
				}
				delete(dead, ev.Switch)
			case LinkCut:
				l := FabricLink{Sw: ev.LinkSw, Port: ev.LinkPort}
				if cut[l] {
					t.Fatalf("seed %d cut already-cut link %v", seed, l)
				}
				cut[l] = true
			case LinkRestore:
				l := FabricLink{Sw: ev.LinkSw, Port: ev.LinkPort}
				if !cut[l] {
					t.Fatalf("seed %d restored intact link %v", seed, l)
				}
				delete(cut, l)
			}
		}
	}
}

// recordingTarget captures the injector's calls in order.
type recordingTarget struct {
	calls []string
}

func (r *recordingTarget) NumSwitches() int { return 3 }
func (r *recordingTarget) KillSwitch(i int) error {
	r.calls = append(r.calls, FabricEvent{Kind: SwitchKill, Switch: i}.String())
	return nil
}
func (r *recordingTarget) ReviveSwitch(i int) error {
	r.calls = append(r.calls, FabricEvent{Kind: SwitchRevive, Switch: i}.String())
	return nil
}
func (r *recordingTarget) FlapSwitch(i int) error {
	r.calls = append(r.calls, FabricEvent{Kind: SwitchFlap, Switch: i}.String())
	return nil
}
func (r *recordingTarget) CutLink(sw int, port asic.PortID) error {
	r.calls = append(r.calls, FabricEvent{Kind: LinkCut, LinkSw: sw, LinkPort: port}.String())
	return nil
}
func (r *recordingTarget) RestoreLink(sw int, port asic.PortID) error {
	r.calls = append(r.calls, FabricEvent{Kind: LinkRestore, LinkSw: sw, LinkPort: port}.String())
	return nil
}

func TestFabricInjectorReplaysDeterministically(t *testing.T) {
	sched := RandomFabricSchedule(42, fabricOpts())
	run := func() []string {
		in := NewFabricInjector(42, sched)
		tgt := &recordingTarget{}
		for tick := 0; tick < 45; tick++ {
			in.Advance(tgt)
		}
		if !in.Done() {
			t.Fatal("injector not done after the full timeline")
		}
		return tgt.calls
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two replays diverged")
	}
	if len(a) == 0 {
		t.Fatal("no target calls recorded")
	}
}

func TestFabricInjectorCorruptionWindow(t *testing.T) {
	sched := FabricSchedule{
		{Tick: 1, Kind: WireCorruptWindow, LinkSw: 0, LinkPort: 10, Ticks: 2, Bytes: 3},
	}
	in := NewFabricInjector(1, sched)
	in.Advance(nil)
	if !in.CorruptionOpen(0, 10) {
		t.Error("window not open on its first tick")
	}
	if in.CorruptionOpen(1, 10) || in.CorruptionOpen(0, 11) {
		t.Error("window open on the wrong wire")
	}
	in.Advance(nil)
	if !in.CorruptionOpen(0, 10) {
		t.Error("2-tick window closed after one tick")
	}
	in.Advance(nil)
	if in.CorruptionOpen(0, 10) {
		t.Error("window still open after expiry")
	}
}
