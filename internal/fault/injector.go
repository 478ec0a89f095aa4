package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

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

// tableFault is one armed TableWriteFail.
type tableFault struct {
	remaining int // negative: permanent
	ambiguous bool
}

// windowKey names an armed window: its kind (RecircOverload or
// WireCorruptWindow) and the switch and port it covers.
type windowKey struct {
	kind Kind
	sw   int
	port asic.PortID
}

// window is one armed RecircOverload or WireCorruptWindow.
type window struct {
	until int // last tick the window is open
	bytes int // bytes flipped per packet (corruption)
	seen  int // recirculations seen inside the window (overload)
}

// Injector replays a fault schedule. It arms the faults it serves
// itself — one-shot wire damage (asic.FaultHook), overload and
// corruption windows (asic.FaultHook and the fabric's wire hook) and
// table-write faults (the Driver shim) — and returns every fired event
// for the soak target to apply the rest. One mutex serves Advance, the
// hooks and the flaky applier. All randomness flows from the seed, so a
// given (seed, schedule) pair reproduces the identical event sequence,
// byte flips and packet losses.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	sched  Schedule
	next   int // index of the first unfired schedule entry
	tick   int
	losses []Loss

	wire    map[asic.PortID][]Event // armed one-shot corrupt/truncate
	windows map[windowKey]*window
	tables  map[TableRef]*tableFault
}

// NewInjector builds an injector over a copy of sched sorted by tick;
// same-tick order is preserved.
func NewInjector(seed int64, sched Schedule) *Injector {
	s := append(Schedule(nil), sched...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].Tick < s[j].Tick })
	return &Injector{
		rng:     rand.New(rand.NewSource(seed)),
		sched:   s,
		wire:    make(map[asic.PortID][]Event),
		windows: make(map[windowKey]*window),
		tables:  make(map[TableRef]*tableFault),
	}
}

// Advance moves virtual time forward one tick, arms every fault
// scheduled for it that the injector serves, and returns every event
// that fired. Port, switch and link state changes are the caller's to
// apply.
func (in *Injector) Advance() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.tick++
	first := in.next
	for ; in.next < len(in.sched) && in.sched[in.next].Tick <= in.tick; in.next++ {
		switch ev := in.sched[in.next]; ev.Kind {
		case Corrupt, Truncate:
			in.wire[ev.Port] = append(in.wire[ev.Port], ev)
		case RecircOverload, WireCorruptWindow:
			in.windows[windowKey{ev.Kind, ev.Switch, ev.Port}] = &window{until: in.tick + ev.Dur() - 1, bytes: ev.bytes()}
		case TableWriteFail:
			in.tables[TableRef{ev.NF, ev.Table}] = &tableFault{remaining: ev.Failures, ambiguous: ev.Ambiguous}
		}
	}
	return in.sched[first:in.next:in.next]
}

// Done reports whether every scheduled event has fired.
func (in *Injector) Done() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.next >= len(in.sched)
}

// Losses returns the packets the injector destroyed so far.
func (in *Injector) Losses() []Loss {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Loss(nil), in.losses...)
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
	w := in.open(RecircOverload, 0, port)
	if w == nil {
		return true
	}
	w.seen++
	if w.seen%2 == 1 {
		in.recordLoss(port, "recirculation queue overload")
		return false
	}
	return true
}

// CorruptionOpen reports whether a corruption window is currently open
// on the directed wire leaving (sw, port) — chaos invariants use it to
// tell attributable wire losses from silent blackholes.
func (in *Injector) CorruptionOpen(sw int, port asic.PortID) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.open(WireCorruptWindow, sw, port) != nil
}

// WireHook is the fabric wire-crossing interceptor: inside an open
// corruption window it flips bytes in the serialized packet and
// reparses, destroying the packet (ok=false) when the mangled bytes no
// longer parse. Outside a window it passes packets through untouched.
// The signature matches cluster's WireHook seam.
func (in *Injector) WireHook(fromSw int, fromPort asic.PortID, pkt *packet.Parsed) (*packet.Parsed, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	w := in.open(WireCorruptWindow, fromSw, fromPort)
	if w == nil {
		return pkt, true
	}
	if !in.corruptWire(pkt, w.bytes, false) {
		in.recordLoss(fromPort, fmt.Sprintf("wire %d:%d corruption destroyed packet on wire", fromSw, fromPort))
		return nil, false
	}
	return pkt, true
}

// open returns the window of the kind open on (sw, port) this tick, or
// nil. The caller holds mu.
func (in *Injector) open(kind Kind, sw int, port asic.PortID) *window {
	w := in.windows[windowKey{kind, sw, port}]
	if w == nil || in.tick > w.until {
		return nil
	}
	return w
}

// takeWireFault pops the next armed one-shot wire fault for the port.
// The caller holds mu.
func (in *Injector) takeWireFault(port asic.PortID) (Event, bool) {
	q := in.wire[port]
	if len(q) == 0 {
		return Event{}, false
	}
	in.wire[port] = q[1:]
	return q[0], true
}

// recordLoss records one destroyed packet at the current tick. The
// caller holds mu.
func (in *Injector) recordLoss(port asic.PortID, reason string) {
	in.losses = append(in.losses, Loss{Tick: in.tick, Port: port, Reason: reason})
}

// corruptWire puts the packet on the wire, flips n random bytes — or,
// truncating, cuts n off the end — and reparses it in place. It reports
// false when the mangled bytes no longer parse: the packet is
// destroyed. The caller holds mu.
func (in *Injector) corruptWire(pkt *packet.Parsed, n int, truncate bool) bool {
	wire, err := pkt.Serialize(nil)
	if err != nil || len(wire) == 0 {
		return false
	}
	if truncate {
		wire = wire[:len(wire)-min(n, len(wire)-1)]
	} else {
		for i := 0; i < n; i++ {
			pos := in.rng.Intn(len(wire))
			wire[pos] ^= byte(1 + in.rng.Intn(255))
		}
	}
	var mangled packet.Parsed
	if err := mangled.Parse(wire); err != nil {
		return false
	}
	*pkt = mangled
	return true
}

// tableFaultFor consumes one armed failure for the write target,
// reporting whether the write must fail and whether it is ambiguous
// (committed but unacknowledged).
func (in *Injector) tableFaultFor(nf, table string) (fails, ambiguous bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	ref := TableRef{nf, table}
	tf := in.tables[ref]
	if tf == nil {
		return false, false
	}
	if tf.remaining < 0 {
		return true, tf.ambiguous // permanent
	}
	if tf.remaining == 0 {
		delete(in.tables, ref)
		return false, false
	}
	tf.remaining--
	return true, tf.ambiguous
}
