package fault

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"dejavu/internal/ctl"
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
				l := FabricLink{Sw: ev.Switch, Port: ev.Port}
				if cut[l] {
					t.Fatalf("seed %d cut already-cut link %v", seed, l)
				}
				cut[l] = true
			case LinkRestore:
				l := FabricLink{Sw: ev.Switch, Port: ev.Port}
				if !cut[l] {
					t.Fatalf("seed %d restored intact link %v", seed, l)
				}
				delete(cut, l)
			}
		}
	}
}

func TestFabricInjectorReplaysDeterministically(t *testing.T) {
	sched := RandomFabricSchedule(42, fabricOpts())
	run := func() ([]Event, []Loss) {
		in := NewInjector(42, sched)
		var fired []Event
		for tick := 0; tick < 45; tick++ {
			fired = append(fired, in.Advance()...)
			for _, l := range fabricOpts().Links {
				in.WireHook(l.Sw, l.Port, testPacket())
			}
		}
		if !in.Done() {
			t.Fatal("injector not done after the full timeline")
		}
		return fired, in.Losses()
	}
	evA, lossA := run()
	evB, lossB := run()
	if !reflect.DeepEqual(evA, evB) || !reflect.DeepEqual(lossA, lossB) {
		t.Fatal("two replays diverged")
	}
	if !reflect.DeepEqual(evA, []Event(sched)) {
		t.Fatalf("fired %v, want the whole schedule %v", evA, sched)
	}
	if len(lossA) == 0 {
		t.Error("replay destroyed no packet; the loss comparison is vacuous")
	}
}

func TestFabricInjectorCorruptionWindow(t *testing.T) {
	sched := Schedule{
		{Tick: 1, Kind: WireCorruptWindow, Switch: 0, Port: 10, Ticks: 2, Bytes: 3},
	}
	in := NewInjector(1, sched)
	in.Advance()
	if !in.CorruptionOpen(0, 10) {
		t.Error("window not open on its first tick")
	}
	if in.CorruptionOpen(1, 10) || in.CorruptionOpen(0, 11) {
		t.Error("window open on the wrong wire")
	}
	in.Advance()
	if !in.CorruptionOpen(0, 10) {
		t.Error("2-tick window closed after one tick")
	}
	in.Advance()
	if in.CorruptionOpen(0, 10) {
		t.Error("window still open after expiry")
	}
}

// TestInjectorHooksShareOneLock: Advance, the wire hook, the window
// query and the flaky applier run concurrently against one injector, as
// a fabric soak's ticks, wire crossings and driver retries do; run
// under -race.
func TestInjectorHooksShareOneLock(t *testing.T) {
	sched := append(RandomFabricSchedule(7, fabricOpts()), Schedule{
		{Tick: 1, Kind: TableWriteFail, NF: "router", Table: "ipv4_lpm", Failures: -1},
	}...)
	in := NewInjector(7, sched)
	d := &Driver{Applier: NewFlakyApplier(&applyCounter{}, in), Sleep: func(time.Duration) {}}
	w := ctl.TableWrite{NF: "router", Table: "ipv4_lpm"}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for tick := 0; tick < 45; tick++ {
			in.Advance()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			l := fabricOpts().Links[i%3]
			in.WireHook(l.Sw, l.Port, testPacket())
			in.CorruptionOpen(l.Sw, l.Port)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = d.Apply(w) // fails once the permanent fault is armed
		}
	}()
	wg.Wait()
	if !in.Done() {
		t.Error("schedule not drained")
	}
	if err := d.Apply(w); err == nil {
		t.Error("a write succeeded under a permanent table fault")
	}
}
