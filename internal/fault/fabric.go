package fault

import (
	"math/rand"

	"dejavu/internal/asic"
)

// Fabric fault schedules: seeded switch kills and revivals, link cuts
// and restores, and wire corruption windows. The same deterministic-seed
// discipline as RandomSchedule applies — a given (seed, opts) pair
// always reproduces the identical event sequence.

// FabricLink names one directed inter-switch wire by its near end.
type FabricLink struct {
	Sw   int
	Port asic.PortID
}

// FabricScheduleOpts parameterizes random fabric schedule generation.
type FabricScheduleOpts struct {
	// Ticks is the length of the timeline.
	Ticks int
	// Switches is the fabric size; switch indices are drawn from
	// [0, Switches).
	Switches int
	// ProtectedSwitches are never killed — typically the
	// entry switch, without which no chain can carry traffic at all
	// (mirroring how single-switch schedules keep the inject port out
	// of FlapPorts).
	ProtectedSwitches []int
	// Links are the directed wires eligible for LinkCut/LinkRestore
	// and WireCorruptWindow events.
	Links []FabricLink
	// EventsPerTick is the expected event rate; zero means 0.4.
	EventsPerTick float64
}

// RandomFabricSchedule generates a deterministic, seed-reproducible
// fabric fault schedule: the same seed and opts always produce the
// identical event list. Revive/restore events are only generated for
// elements a prior kill/cut took out, so the schedule is
// self-consistent, and at most one below the unprotected switch count
// are dead at once, so the fabric never loses every re-placement
// target.
func RandomFabricSchedule(seed int64, opts FabricScheduleOpts) Schedule {
	rng := rand.New(rand.NewSource(seed))
	if opts.Ticks <= 0 {
		opts.Ticks = 20
	}
	rate := opts.EventsPerTick
	if rate <= 0 {
		rate = 0.4
	}
	protected := make(map[int]bool)
	for _, s := range opts.ProtectedSwitches {
		protected[s] = true
	}
	var killable []int
	for s := 0; s < opts.Switches; s++ {
		if !protected[s] {
			killable = append(killable, s)
		}
	}
	maxDead := len(killable) - 1

	var sched Schedule
	dead := make(map[int]bool)
	var deadList []int // deterministic order for revive picks
	cut := make(map[FabricLink]bool)
	var cutList []FabricLink
	for tick := 1; tick <= opts.Ticks; tick++ {
		if rng.Float64() >= rate {
			continue
		}
		// Weighted kind choice, mirroring RandomSchedule: re-rolls fall
		// through to the next eligible kind so a draw is never wasted
		// non-deterministically.
		switch roll := rng.Intn(10); {
		case roll < 3 && len(killable) > 0 && len(deadList) < maxDead:
			s := killable[rng.Intn(len(killable))]
			if dead[s] {
				continue
			}
			dead[s] = true
			deadList = append(deadList, s)
			sched = append(sched, Event{Tick: tick, Kind: SwitchKill, Switch: s})
		case roll < 5 && len(deadList) > 0:
			i := rng.Intn(len(deadList))
			s := deadList[i]
			deadList = append(deadList[:i], deadList[i+1:]...)
			delete(dead, s)
			sched = append(sched, Event{Tick: tick, Kind: SwitchRevive, Switch: s})
		case roll < 7 && len(opts.Links) > 0:
			l := opts.Links[rng.Intn(len(opts.Links))]
			if cut[l] {
				continue
			}
			cut[l] = true
			cutList = append(cutList, l)
			sched = append(sched, Event{Tick: tick, Kind: LinkCut, Switch: l.Sw, Port: l.Port})
		case roll < 8 && len(cutList) > 0:
			i := rng.Intn(len(cutList))
			l := cutList[i]
			cutList = append(cutList[:i], cutList[i+1:]...)
			delete(cut, l)
			sched = append(sched, Event{Tick: tick, Kind: LinkRestore, Switch: l.Sw, Port: l.Port})
		case len(opts.Links) > 0:
			l := opts.Links[rng.Intn(len(opts.Links))]
			sched = append(sched, Event{
				Tick: tick, Kind: WireCorruptWindow, Switch: l.Sw, Port: l.Port,
				Bytes: 1 + rng.Intn(4), Ticks: 1 + rng.Intn(3),
			})
		}
	}
	return sched
}
