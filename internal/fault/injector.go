package fault

import (
	"fmt"

	"dejavu/internal/asic"
	"dejavu/internal/packet"
)

// Loss records one packet the injector destroyed, so chaos harnesses
// can tell attributable losses from silent blackholes.
type Loss struct {
	Tick   int
	Port   asic.PortID
	Reason string
}

// String renders the loss as one deterministic log line.
func (l Loss) String() string {
	return fmt.Sprintf("t%03d loss port %d: %s", l.Tick, l.Port, l.Reason)
}

// tableFault is one armed TableWriteFail.
type tableFault struct {
	remaining int // negative: permanent
	ambiguous bool
}

// Injector replays a fault schedule. It implements asic.FaultHook for
// the wire-level faults and arms control-plane faults the Driver shim
// consults. All randomness flows from the seed, so a given (seed,
// schedule) pair reproduces the identical event sequence, byte flips
// and packet losses.
type Injector struct {
	timeline[Event]

	wire         map[asic.PortID][]Event // armed one-shot corrupt/truncate
	overload     map[asic.PortID]int     // port -> overload window end tick
	overloadSeen map[asic.PortID]int     // per-port recirc counter in window
	tables       map[string]*tableFault  // "nf/table" -> armed fault
}

// NewInjector builds an injector over a schedule. The schedule is
// sorted by tick; same-tick order is preserved.
func NewInjector(seed int64, sched Schedule) *Injector {
	return &Injector{
		timeline:     newTimeline(seed, sched),
		wire:         make(map[asic.PortID][]Event),
		overload:     make(map[asic.PortID]int),
		overloadSeen: make(map[asic.PortID]int),
		tables:       make(map[string]*tableFault),
	}
}

// Advance moves virtual time forward one tick, fires every event
// scheduled for it — applying port flaps directly to the switch and
// arming wire/control-plane faults — and returns the fired events for
// the reconciler to consume.
func (in *Injector) Advance(sw *asic.Switch) []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	fired := in.advance()
	for _, ev := range fired {
		switch ev.Kind {
		case PortDown, PortUp:
			if sw != nil {
				sw.SetPortAdminState(ev.Port, ev.Kind == PortUp)
			}
		case Corrupt, Truncate:
			in.wire[ev.Port] = append(in.wire[ev.Port], ev)
		case RecircOverload:
			in.overload[ev.Port] = in.tick + ev.Dur() - 1
			in.overloadSeen[ev.Port] = 0
		case TableWriteFail:
			in.tables[ev.NF+"/"+ev.Table] = &tableFault{remaining: ev.Failures, ambiguous: ev.Ambiguous}
		}
	}
	return fired
}

// OnInject implements asic.FaultHook: armed wire faults on the ingress
// port hit the packet before it enters the pipeline.
func (in *Injector) OnInject(port asic.PortID, pkt *packet.Parsed) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	ev, ok := in.takeWireFault(port)
	if !ok {
		return nil
	}
	if !in.corruptWire(pkt, ev.bytes(), ev.Kind == Truncate) {
		in.recordLoss(port, fmt.Sprintf("%s destroyed packet at ingress", ev.Kind))
		return fmt.Errorf("fault: %s destroyed packet", ev.Kind)
	}
	return nil
}

// OnEmit implements asic.FaultHook: armed wire faults on the egress
// port corrupt or lose the departing packet.
func (in *Injector) OnEmit(port asic.PortID, pkt *packet.Parsed) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	ev, ok := in.takeWireFault(port)
	if !ok {
		return true
	}
	if !in.corruptWire(pkt, ev.bytes(), ev.Kind == Truncate) {
		in.recordLoss(port, fmt.Sprintf("%s destroyed packet on wire", ev.Kind))
		return false
	}
	return true
}

// OnRecirculate implements asic.FaultHook: during an overload window
// every other recirculation through the port is dropped.
func (in *Injector) OnRecirculate(port asic.PortID, pkt *packet.Parsed) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	until, ok := in.overload[port]
	if !ok || in.tick > until {
		return true
	}
	in.overloadSeen[port]++
	if in.overloadSeen[port]%2 == 1 {
		in.recordLoss(port, "recirculation queue overload")
		return false
	}
	return true
}

// takeWireFault pops the next armed one-shot wire fault for the port.
func (in *Injector) takeWireFault(port asic.PortID) (Event, bool) {
	q := in.wire[port]
	if len(q) == 0 {
		return Event{}, false
	}
	ev := q[0]
	in.wire[port] = q[1:]
	return ev, true
}

// tableFaultFor consumes one armed failure for the write target,
// reporting whether the write must fail and whether it is ambiguous
// (committed but unacknowledged).
func (in *Injector) tableFaultFor(nf, table string) (fails, ambiguous bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	tf := in.tables[nf+"/"+table]
	if tf == nil {
		return false, false
	}
	if tf.remaining < 0 {
		return true, tf.ambiguous // permanent
	}
	if tf.remaining == 0 {
		delete(in.tables, nf+"/"+table)
		return false, false
	}
	tf.remaining--
	return true, tf.ambiguous
}
