// Package fault is Dejavu's deterministic fault-injection layer: the
// chaos substrate behind the §7 operational concerns ("service upgrade
// and expansion, failure handling"). One event vocabulary covers a
// single switch and a multi-switch fabric — port flaps, wire
// corruption and truncation, recirculation-queue overload, transient/
// permanent control-plane write failures, switch kills and link cuts —
// and seeded generators produce reproducible schedules of it. One
// Injector replays a schedule: it arms the faults it serves itself
// (wire damage through asic.FaultHook and the fabric's wire hook,
// overload and corruption windows, table-write faults the Driver shim
// consults) and hands every fired event back, so the soak target
// applies port, switch and link state changes to its own topology. The
// same seed and schedule always reproduce the identical event
// sequence, packet losses and reconciler decisions.
package fault

import (
	"fmt"
	"math/rand"

	"dejavu/internal/asic"
)

// Kind classifies one injected fault.
type Kind uint8

// Fault kinds. The first six are faults of one switch; the rest exist
// only in a fabric.
const (
	// PortDown takes a front-panel port administratively down: a link
	// flap, a pulled cable, a dead transceiver.
	PortDown Kind = iota
	// PortUp brings a previously downed port back.
	PortUp
	// Corrupt flips bytes in the next packet crossing the port's wire.
	Corrupt
	// Truncate cuts bytes off the end of the next packet crossing the
	// port's wire.
	Truncate
	// RecircOverload models a congested recirculation queue: for the
	// event's duration every other recirculation is dropped.
	RecircOverload
	// TableWriteFail makes control-plane writes against one (nf, table)
	// pair fail: a bounded number of times (transient), forever
	// (permanent), or with the write applied but the ack lost
	// (ambiguous — the idempotency case).
	TableWriteFail
	// SwitchKill powers a whole fabric switch off: every packet offered
	// to it drops until a SwitchRevive.
	SwitchKill
	// SwitchRevive brings a killed switch back.
	SwitchRevive
	// LinkCut severs a directed inter-switch wire.
	LinkCut
	// LinkRestore reattaches a previously cut wire.
	LinkRestore
	// WireCorruptWindow opens a window during which every packet
	// crossing one directed wire has bytes flipped (destroying packets
	// whose mangled bytes no longer parse).
	WireCorruptWindow
)

var kindNames = [...]string{
	"port-down", "port-up", "corrupt", "truncate", "recirc-overload", "table-write-fail",
	"switch-kill", "switch-revive", "link-cut", "link-restore", "wire-corrupt-window",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Fabric reports whether the kind exists only in a fabric.
func (k Kind) Fabric() bool { return k >= SwitchKill }

// Event is one scheduled fault.
type Event struct {
	// Tick is the virtual time the event fires at (1-based).
	Tick int
	Kind Kind
	// Switch targets SwitchKill/SwitchRevive and, with Port, names the
	// near end of the directed wire for LinkCut/LinkRestore/
	// WireCorruptWindow. A single switch is switch 0.
	Switch int
	// Port targets port-scoped faults (PortDown/PortUp/Corrupt/
	// Truncate/RecircOverload) and the wire's near-end port.
	Port asic.PortID
	// NF and Table target TableWriteFail events.
	NF, Table string
	// Failures is how many consecutive writes fail (TableWriteFail);
	// negative means permanent.
	Failures int
	// Ambiguous marks a TableWriteFail where the write commits on the
	// switch but the acknowledgement is lost, so a naive retry would
	// apply it twice.
	Ambiguous bool
	// Bytes is how many bytes to flip (Corrupt, WireCorruptWindow, per
	// packet) or strip (Truncate); zero means a default of 2.
	Bytes int
	// Ticks is how long a RecircOverload or WireCorruptWindow lasts;
	// zero means 1.
	Ticks int
}

// String renders the event as one deterministic log line.
func (e Event) String() string {
	switch e.Kind {
	case TableWriteFail:
		mode := fmt.Sprintf("transient x%d", e.Failures)
		if e.Failures < 0 {
			mode = "permanent"
		}
		if e.Ambiguous {
			mode += " ambiguous"
		}
		return fmt.Sprintf("t%03d %s %s/%s (%s)", e.Tick, e.Kind, e.NF, e.Table, mode)
	case RecircOverload:
		return fmt.Sprintf("t%03d %s port %d for %d tick(s)", e.Tick, e.Kind, e.Port, e.Dur())
	case Corrupt, Truncate:
		return fmt.Sprintf("t%03d %s port %d (%d bytes)", e.Tick, e.Kind, e.Port, e.bytes())
	case SwitchKill, SwitchRevive:
		return fmt.Sprintf("t%03d %s switch %d", e.Tick, e.Kind, e.Switch)
	case LinkCut, LinkRestore:
		return fmt.Sprintf("t%03d %s wire %d:%d", e.Tick, e.Kind, e.Switch, e.Port)
	case WireCorruptWindow:
		return fmt.Sprintf("t%03d %s wire %d:%d for %d tick(s) (%d bytes)", e.Tick, e.Kind, e.Switch, e.Port, e.Dur(), e.bytes())
	default:
		return fmt.Sprintf("t%03d %s port %d", e.Tick, e.Kind, e.Port)
	}
}

func (e Event) bytes() int { return positiveOr(e.Bytes, 2) }

// Dur is the effective duration of a RecircOverload or
// WireCorruptWindow in ticks.
func (e Event) Dur() int { return positiveOr(e.Ticks, 1) }

// positiveOr returns n, or def when n is not positive — the "zero means
// a default" rule of the events' Bytes and Ticks fields.
func positiveOr(n, def int) int {
	if n <= 0 {
		return def
	}
	return n
}

// Schedule is a fault timeline; an injector replays it in tick order.
type Schedule []Event

// TableRef names one (nf, table) control-plane write target.
type TableRef struct {
	NF, Table string
}

// ScheduleOpts parameterizes random schedule generation.
type ScheduleOpts struct {
	// Ticks is the length of the timeline.
	Ticks int
	// FlapPorts are the ports eligible for PortDown/PortUp events.
	FlapPorts []asic.PortID
	// WirePorts are the ports eligible for Corrupt/Truncate events.
	WirePorts []asic.PortID
	// RecircPorts are the loopback ports eligible for RecircOverload.
	RecircPorts []asic.PortID
	// Tables are the write targets eligible for TableWriteFail.
	Tables []TableRef
	// EventsPerTick is the expected event rate; zero means 0.5.
	EventsPerTick float64
}

// RandomSchedule generates a deterministic, seed-reproducible fault
// schedule: the same seed and opts always produce the identical event
// list. PortUp events are only generated for ports a prior PortDown
// took out, so the schedule is self-consistent.
func RandomSchedule(seed int64, opts ScheduleOpts) Schedule {
	rng := rand.New(rand.NewSource(seed))
	if opts.Ticks <= 0 {
		opts.Ticks = 20
	}
	rate := opts.EventsPerTick
	if rate <= 0 {
		rate = 0.5
	}
	var sched Schedule
	down := make(map[asic.PortID]bool)
	var downList []asic.PortID // deterministic order for PortUp picks
	for tick := 1; tick <= opts.Ticks; tick++ {
		if rng.Float64() >= rate {
			continue
		}
		// Weighted kind choice. Re-rolls fall through to the next
		// eligible kind so a draw is never wasted non-deterministically.
		switch roll := rng.Intn(10); {
		case roll < 3 && len(opts.FlapPorts) > 0:
			p := opts.FlapPorts[rng.Intn(len(opts.FlapPorts))]
			if down[p] {
				continue
			}
			down[p] = true
			downList = append(downList, p)
			sched = append(sched, Event{Tick: tick, Kind: PortDown, Port: p})
		case roll < 5 && len(downList) > 0:
			i := rng.Intn(len(downList))
			p := downList[i]
			downList = append(downList[:i], downList[i+1:]...)
			delete(down, p)
			sched = append(sched, Event{Tick: tick, Kind: PortUp, Port: p})
		case roll < 7 && len(opts.WirePorts) > 0:
			p := opts.WirePorts[rng.Intn(len(opts.WirePorts))]
			kind := Corrupt
			if rng.Intn(3) == 0 {
				kind = Truncate
			}
			sched = append(sched, Event{Tick: tick, Kind: kind, Port: p, Bytes: 1 + rng.Intn(4)})
		case roll < 8 && len(opts.RecircPorts) > 0:
			p := opts.RecircPorts[rng.Intn(len(opts.RecircPorts))]
			sched = append(sched, Event{Tick: tick, Kind: RecircOverload, Port: p, Ticks: 1 + rng.Intn(3)})
		case len(opts.Tables) > 0:
			ref := opts.Tables[rng.Intn(len(opts.Tables))]
			ev := Event{Tick: tick, Kind: TableWriteFail, NF: ref.NF, Table: ref.Table, Failures: 1 + rng.Intn(3)}
			if rng.Intn(4) == 0 {
				ev.Ambiguous = true
			}
			sched = append(sched, ev)
		}
	}
	return sched
}
