package fault

import (
	"fmt"
	"math/rand"

	"dejavu/internal/asic"
	"dejavu/internal/packet"
)

// Fabric-level fault injection: seeded schedules of switch kills and
// revivals, link cuts and restores, and wire corruption windows,
// replayed against any FabricTarget. The same deterministic-seed
// discipline as the single-switch Schedule applies — a given (seed,
// opts) pair always reproduces the identical fabric event sequence.

// FabricKind classifies one fabric-level injected fault.
type FabricKind uint8

// Fabric fault kinds.
const (
	// SwitchKill powers a whole switch off: every packet offered to it
	// drops until a SwitchRevive.
	SwitchKill FabricKind = iota
	// SwitchRevive brings a killed (or flapping) switch back.
	SwitchRevive
	// SwitchFlap degrades a switch to dropping every other packet.
	SwitchFlap
	// LinkCut severs a directed inter-switch wire.
	LinkCut
	// LinkRestore reattaches a previously cut wire.
	LinkRestore
	// WireCorruptWindow opens a window during which every packet
	// crossing one directed wire has bytes flipped (destroying packets
	// whose mangled bytes no longer parse).
	WireCorruptWindow
)

// String names the kind.
func (k FabricKind) String() string {
	switch k {
	case SwitchKill:
		return "switch-kill"
	case SwitchRevive:
		return "switch-revive"
	case SwitchFlap:
		return "switch-flap"
	case LinkCut:
		return "link-cut"
	case LinkRestore:
		return "link-restore"
	case WireCorruptWindow:
		return "wire-corrupt-window"
	default:
		return fmt.Sprintf("FabricKind(%d)", uint8(k))
	}
}

// FabricEvent is one scheduled fabric fault.
type FabricEvent struct {
	// Tick is the virtual time the event fires at (1-based).
	Tick int
	Kind FabricKind
	// Switch targets SwitchKill/SwitchRevive/SwitchFlap.
	Switch int
	// LinkSw and LinkPort name the near end of the directed wire for
	// LinkCut/LinkRestore/WireCorruptWindow.
	LinkSw   int
	LinkPort asic.PortID
	// Bytes is how many bytes a corruption window flips per packet;
	// zero means 2.
	Bytes int
	// Ticks is how long a WireCorruptWindow lasts; zero means 1.
	Ticks int
}

// String renders the event as one deterministic log line.
func (e FabricEvent) String() string {
	switch e.Kind {
	case SwitchKill, SwitchRevive, SwitchFlap:
		return fmt.Sprintf("t%03d %s switch %d", e.Tick, e.Kind, e.Switch)
	case WireCorruptWindow:
		return fmt.Sprintf("t%03d %s wire %d:%d for %d tick(s) (%d bytes)",
			e.Tick, e.Kind, e.LinkSw, e.LinkPort, e.Dur(), e.bytes())
	default:
		return fmt.Sprintf("t%03d %s wire %d:%d", e.Tick, e.Kind, e.LinkSw, e.LinkPort)
	}
}

func (e FabricEvent) at() int    { return e.Tick }
func (e FabricEvent) bytes() int { return positiveOr(e.Bytes, 2) }

// Dur is the effective duration of a WireCorruptWindow in ticks.
func (e FabricEvent) Dur() int { return positiveOr(e.Ticks, 1) }

// FabricSchedule is a fabric fault timeline; an injector replays it in
// tick order.
type FabricSchedule []FabricEvent

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
	// ProtectedSwitches are never killed or flapped — typically the
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
func RandomFabricSchedule(seed int64, opts FabricScheduleOpts) FabricSchedule {
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

	var sched FabricSchedule
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
			sched = append(sched, FabricEvent{Tick: tick, Kind: SwitchKill, Switch: s})
		case roll < 5 && len(deadList) > 0:
			i := rng.Intn(len(deadList))
			s := deadList[i]
			deadList = append(deadList[:i], deadList[i+1:]...)
			delete(dead, s)
			sched = append(sched, FabricEvent{Tick: tick, Kind: SwitchRevive, Switch: s})
		case roll < 7 && len(opts.Links) > 0:
			l := opts.Links[rng.Intn(len(opts.Links))]
			if cut[l] {
				continue
			}
			cut[l] = true
			cutList = append(cutList, l)
			sched = append(sched, FabricEvent{Tick: tick, Kind: LinkCut, LinkSw: l.Sw, LinkPort: l.Port})
		case roll < 8 && len(cutList) > 0:
			i := rng.Intn(len(cutList))
			l := cutList[i]
			cutList = append(cutList[:i], cutList[i+1:]...)
			delete(cut, l)
			sched = append(sched, FabricEvent{Tick: tick, Kind: LinkRestore, LinkSw: l.Sw, LinkPort: l.Port})
		case len(opts.Links) > 0:
			l := opts.Links[rng.Intn(len(opts.Links))]
			sched = append(sched, FabricEvent{
				Tick: tick, Kind: WireCorruptWindow,
				LinkSw: l.Sw, LinkPort: l.Port,
				Bytes: 1 + rng.Intn(4), Ticks: 1 + rng.Intn(3),
			})
		}
	}
	return sched
}

// FabricTarget is what a fabric injector manipulates — implemented by
// cluster.Fabric. Declaring the seam here keeps fault free of a
// dependency on the cluster package.
type FabricTarget interface {
	NumSwitches() int
	KillSwitch(i int) error
	ReviveSwitch(i int) error
	FlapSwitch(i int) error
	CutLink(sw int, port asic.PortID) error
	RestoreLink(sw int, port asic.PortID) error
}

// corruptWindow is one armed WireCorruptWindow.
type corruptWindow struct {
	until int // last tick the window is open
	bytes int
}

// FabricInjector replays a fabric fault schedule against a
// FabricTarget and implements the wire corruption windows through a
// hook the fabric consults on every wire crossing (wire it up with
// cluster's Fabric.SetWireHook). All randomness flows from the seed.
type FabricInjector struct {
	timeline[FabricEvent]

	windows map[FabricLink]corruptWindow
}

// NewFabricInjector builds an injector over a fabric schedule. The
// schedule is sorted by tick; same-tick order is preserved.
func NewFabricInjector(seed int64, sched FabricSchedule) *FabricInjector {
	return &FabricInjector{
		timeline: newTimeline(seed, sched),
		windows:  make(map[FabricLink]corruptWindow),
	}
}

// Advance moves virtual time forward one tick, fires every event
// scheduled for it — applying switch and link state changes to the
// target and arming corruption windows — and returns the fired events
// for the reconciler to consume.
func (in *FabricInjector) Advance(target FabricTarget) []FabricEvent {
	in.mu.Lock()
	defer in.mu.Unlock()
	fired := in.advance()
	for _, ev := range fired {
		if target != nil {
			switch ev.Kind {
			case SwitchKill:
				_ = target.KillSwitch(ev.Switch)
			case SwitchRevive:
				_ = target.ReviveSwitch(ev.Switch)
			case SwitchFlap:
				_ = target.FlapSwitch(ev.Switch)
			case LinkCut:
				_ = target.CutLink(ev.LinkSw, ev.LinkPort)
			case LinkRestore:
				_ = target.RestoreLink(ev.LinkSw, ev.LinkPort)
			}
		}
		if ev.Kind == WireCorruptWindow {
			in.windows[FabricLink{Sw: ev.LinkSw, Port: ev.LinkPort}] = corruptWindow{
				until: in.tick + ev.Dur() - 1,
				bytes: ev.bytes(),
			}
		}
	}
	return fired
}

// CorruptionOpen reports whether a corruption window is currently open
// on the directed wire leaving (sw, port) — chaos invariants use it to
// tell attributable wire losses from silent blackholes.
func (in *FabricInjector) CorruptionOpen(sw int, port asic.PortID) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	w, ok := in.windows[FabricLink{Sw: sw, Port: port}]
	return ok && in.tick <= w.until
}

// WireHook is the fabric wire-crossing interceptor: inside an open
// corruption window it flips bytes in the serialized packet and
// reparses, destroying the packet (ok=false) when the mangled bytes no
// longer parse. Outside a window it passes packets through untouched.
// The signature matches cluster's WireHook seam.
func (in *FabricInjector) WireHook(fromSw int, fromPort asic.PortID, pkt *packet.Parsed) (*packet.Parsed, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	w, ok := in.windows[FabricLink{Sw: fromSw, Port: fromPort}]
	if !ok || in.tick > w.until {
		return pkt, true
	}
	if !in.corruptWire(pkt, w.bytes, false) {
		in.recordLoss(fromPort, fmt.Sprintf("wire %d:%d corruption destroyed packet on wire", fromSw, fromPort))
		return nil, false
	}
	return pkt, true
}
