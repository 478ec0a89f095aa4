package asic

import (
	"fmt"
	"math/bits"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"dejavu/internal/packet"
	"dejavu/internal/telemetry"
)

// Meta is the platform metadata a pipelet program reads and writes —
// the behavioural counterpart of the 4-byte platform metadata copy in
// the SFC header (Fig. 3).
type Meta struct {
	InPort   PortID
	OutPort  PortID
	Resubmit bool
	Recirc   bool // request recirculation: honoured only via loopback ports
	Drop     bool
	Mirror   bool
	ToCPU    bool

	MirrorPort PortID

	// Passes counts how many times the packet has entered an ingress
	// pipe, so programs can distinguish first-pass processing.
	Passes int
}

// Ctx is the per-packet context handed to pipelet programs. Contexts
// are pooled and reused between packets; programs must not retain a
// *Ctx beyond the StageFunc call.
type Ctx struct {
	Pkt  *packet.Parsed
	Meta Meta

	// Pipelet identifies where the program is running.
	Pipelet PipeletID

	// App is the opaque application state published with the pipelet
	// programs (asic knows nothing about its type). It is captured from
	// the same snapshot as the programs at injection time and kept for
	// the packet's whole lifetime, so a program and the state it reads
	// always come from one consistent configuration — a hot swap can
	// never tear a packet between old programs and new state.
	App any

	// shard picks this context's telemetry counter shard. Assigned once
	// when the pool allocates the context and preserved across resets,
	// so concurrent injectors spread over shards at zero per-packet
	// cost.
	shard uint8

	// tel accumulates this packet's per-pipeline telemetry events in
	// plain memory; inject flushes it to the shard in one batch so
	// the hot path pays one atomic add per visited pipeline instead of
	// one per traversal. Zeroed by the wholesale Ctx reset per packet.
	tel telemetry.DatapathDelta

	// tally accumulates a burst's application counters (see TallySink)
	// in plain memory; tallying says a switch is running the burst and
	// will flush them. It lives here, not on the injection core's stack,
	// because a local handed to the sink's interface method escapes —
	// one allocation per burst.
	tally    [TallyCells]uint32
	tallying bool

	// mem is the burst's plain memory beside the context (see burstMem).
	mem *burstMem
}

// TallyCells is the number of counters a burst tallies in its context:
// as many as fit the context's size class (see pooledCtx).
const TallyCells = 24

// TallySink is the seam through which application state (Ctx.App) has
// its programs' per-packet counters paid once per burst, as the switch
// pays its own port and datapath counters: a program counts with
// Ctx.Tally, and when the burst returns the injection core hands the
// cells to the state of the snapshot the burst ran under — a hot swap
// between bursts loses nothing. What a cell counts is the sink's
// business. FlushTally adds the non-zero cells to the shard's counters
// and zeroes them.
type TallySink interface {
	FlushTally(shard uint8, cells *[TallyCells]uint32)
}

// Tally counts one event into a cell of the burst's tally and reports
// whether it did. It did not when nobody will flush the tally — a lone
// Inject or InjectQuiet, whose counts would gain nothing from the
// detour, or a program run outside a switch — or when the cell is out
// of range; the caller then counts directly.
//
//dv:hotpath
func (c *Ctx) Tally(cell int) bool {
	if !c.tallying || uint(cell) >= TallyCells {
		return false
	}
	c.tally[cell]++
	return true
}

// Shard returns the context's counter shard: a small number fixed when
// the pool allocated the context, so concurrent injectors — each
// recycling its own contexts — index sharded counters with different
// values. Pipelet programs use it to keep their per-packet counters off
// cache lines another injector writes.
func (c *Ctx) Shard() uint8 { return c.shard }

// StageFunc is a behavioural pipelet program: the composed NF logic
// that internal/compose produces for one ingress or egress pipe.
type StageFunc func(*Ctx)

// PortStats counts traffic through one port. The trailing pad keeps
// each port's counters on their own cache line (and the line the
// adjacent-line prefetcher pairs with it): the per-port stats are
// separately heap-allocated 32-byte objects, so without padding two
// busy ports' counters can land on one line and parallel injectors
// ping-pong it between cores.
type PortStats struct {
	RxPackets atomic.Uint64
	RxBytes   atomic.Uint64
	TxPackets atomic.Uint64
	TxBytes   atomic.Uint64

	_ [96]byte
}

// dropShards is the number of cells the switch-wide drop counter is
// split over; injectors index it by their pooled context's telemetry
// shard, so concurrent droppers touch different cache lines.
const dropShards = ctxShards

// dropCounter is a sharded drop tally: a single atomic.Uint64 would
// put every dropping worker on one cache line, serializing exactly the
// path a drop-heavy workload hammers. Add charges one padded cell;
// Load sums them (cold path: stats and tests).
type dropCounter struct {
	cells [dropShards]struct {
		n atomic.Uint64
		_ [120]byte
	}
}

// Add counts one drop into the caller's cell.
//
//dv:hotpath
func (c *dropCounter) Add(shard uint8) { c.cells[shard%dropShards].n.Add(1) }

// Load sums all cells.
func (c *dropCounter) Load() uint64 {
	var sum uint64
	for i := range c.cells {
		sum += c.cells[i].n.Load()
	}
	return sum
}

// Emitted is one packet leaving the switch.
type Emitted struct {
	Port PortID
	Pkt  *packet.Parsed
}

// Step records one pipelet traversal in a packet trace.
type Step struct {
	Pipelet PipeletID
	Note    string // "resubmit", "recirculate", "" for plain traversal
}

// Trace is the full record of one packet's journey through the switch:
// every pipelet visited, transition notes, accumulated latency and the
// final disposition.
type Trace struct {
	Steps          []Step
	Resubmissions  int
	Recirculations int
	Latency        time.Duration
	Out            []Emitted
	CPU            []*packet.Parsed
	Dropped        bool
	DropReason     string
	// DropCode is the typed counterpart of DropReason, used for
	// allocation-free drop accounting.
	DropCode telemetry.DropReason

	// quiet suppresses the per-step record (Steps/Out/CPU stay empty)
	// so the hot path allocates nothing; scalar counters still
	// accumulate.
	quiet     bool
	emitCount int
	cpuCount  int
}

// Path returns the traversal as "ingress 0 -> egress 1 -> ...".
func (t *Trace) Path() string {
	var sb strings.Builder
	for i, st := range t.Steps {
		if i > 0 {
			sb.WriteString(" -> ")
		}
		sb.WriteString(st.Pipelet.String())
	}
	return sb.String()
}

// QuietResult is the allocation-free disposition summary returned by
// InjectQuiet — everything a traffic engine needs to aggregate
// delivered/dropped counters without the per-step trace.
type QuietResult struct {
	Dropped        bool
	DropReason     string
	DropCode       telemetry.DropReason
	Emitted        int // packets that left through front-panel ports (incl. mirror copies)
	ToCPU          int
	Resubmissions  int
	Recirculations int
	Latency        time.Duration
}

// maxPasses bounds ingress entries per packet to catch routing loops.
const maxPasses = 64

// FaultHook intercepts packets at the switch's port boundaries so a
// fault-injection layer (internal/fault) can model wire-level failures
// without the switch knowing about schedules or seeds.
type FaultHook interface {
	// OnInject runs before a packet enters a front-panel port. A
	// non-nil error refuses the packet at the port (link-level loss).
	OnInject(port PortID, pkt *packet.Parsed) error
	// OnEmit runs as a packet leaves through a front-panel port and may
	// mutate it (corruption, truncation). Returning false loses the
	// packet on the wire.
	OnEmit(port PortID, pkt *packet.Parsed) bool
	// OnRecirculate runs for every recirculation through a loopback
	// port. Returning false drops the packet (recirculation-queue
	// overload).
	OnRecirculate(port PortID, pkt *packet.Parsed) bool
}

// snapshot is the switch's read-mostly configuration, published as one
// immutable value: packets load it once at injection time and never
// touch a lock afterwards (an RCU scheme — readers see a consistent
// config for the whole packet lifetime, writers copy-and-swap).
type snapshot struct {
	loopback []LoopbackMode // indexed by front-panel port
	portDown []bool         // indexed by front-panel port
	faults   FaultHook
	tel      *telemetry.Datapath // nil when telemetry is off
	ingress  []StageFunc         // indexed by pipeline
	egress   []StageFunc
	// app is opaque application state published together with the
	// pipelet programs (see Ctx.App). Swapped atomically with them by
	// Commit, so programs never observe state from another generation.
	app any
	// tally is app when it is a TallySink, resolved once per commit.
	tally TallySink
	// loopbacks lists, per pipeline, its front-panel ports in loopback
	// mode, ascending: the ports its recirculations take in turn. It is
	// last so the fields every packet reads keep their cache lines.
	loopbacks [][]PortID
}

// clone returns a deep copy writers mutate before republishing.
func (sn *snapshot) clone() *snapshot {
	return &snapshot{
		loopback:  append([]LoopbackMode(nil), sn.loopback...),
		portDown:  append([]bool(nil), sn.portDown...),
		faults:    sn.faults,
		tel:       sn.tel,
		ingress:   append([]StageFunc(nil), sn.ingress...),
		egress:    append([]StageFunc(nil), sn.egress...),
		app:       sn.app,
		tally:     sn.tally,
		loopbacks: sn.loopbacks,
	}
}

// loopbackOf returns the loopback mode of a front-panel port (special
// ports are handled by the callers).
func (sn *snapshot) loopbackOf(port PortID) LoopbackMode {
	if int(port) >= len(sn.loopback) {
		return LoopbackOff
	}
	return sn.loopback[port]
}

// portUp reports whether a front-panel port is administratively up.
func (sn *snapshot) portUp(port PortID) bool {
	if int(port) >= len(sn.portDown) {
		return true
	}
	return !sn.portDown[port]
}

// Switch is a behavioural instance of a Profile: per-port state,
// per-pipelet programs, and an execution engine implementing the
// resubmission/recirculation rules. The packet path is lock-free: all
// read-mostly configuration lives in an atomically-swapped snapshot
// and per-port counters are preallocated atomics.
type Switch struct {
	prof Profile

	mu   sync.Mutex // serializes configuration writers
	snap atomic.Pointer[snapshot]
	// turns counts, per pipeline, the recirculations spread over its
	// loopback ports.
	turns []atomic.Uint64

	// Preallocated per-port counters: the hot path indexes these
	// without locking. extraStats covers out-of-profile ports queried
	// by tests or tooling (cold path only).
	frontStats  []*PortStats // indexed by front-panel port
	recircStats []*PortStats // indexed by pipeline
	cpuStats    *PortStats
	extraMu     sync.RWMutex
	extraStats  map[PortID]*PortStats

	// The CPU queue (see toCPU): the punts DrainCPU will hand out, and how
	// many of cpuQueueCap they and the punts bursts still hold have taken.
	// Its memory is recycled (see DrainCPU): cpuLent is the slice the last
	// drain handed out, queued the largest chunk of the punts since, lent
	// that of the last drain, spare one a drain took back.
	cpuMu               sync.Mutex
	cpuQueue, cpuLent   []*packet.Parsed
	queued, lent, spare puntMem
	cpuDepth            atomic.Int32

	drops dropCounter
}

// ctxShards is the number of counter shards pooled contexts spread
// over. Every counter indexed by Ctx.Shard has at least this many
// cells (dropShards here, compose's counterShards, telemetry's
// datapath shards).
const ctxShards = 8

// shardOrder is the order in which free shards are handed out:
// contexts alive together get shards far apart, so the cells two
// injectors write are never neighbours in a counter's shard array.
var shardOrder = [ctxShards]uint8{0, 4, 2, 6, 1, 5, 3, 7}

// shardHolders counts, per shard, the pooled contexts alive that hold
// it. Drawing shards from an ever-growing sequence instead would let
// two long-lived contexts collide modulo ctxShards — sync.Pool drops
// idle contexts at every collection, so how many were made before two
// injectors start depends on GC timing — and the injectors would then
// share every counter line for the rest of the run.
var shardHolders struct {
	mu sync.Mutex
	n  [ctxShards]int
}

// acquireShard returns the shard the fewest live contexts hold, the
// earliest in shardOrder among equals.
func acquireShard() uint8 {
	shardHolders.mu.Lock()
	defer shardHolders.mu.Unlock()
	best := shardOrder[0]
	for _, s := range shardOrder[1:] {
		if shardHolders.n[s] < shardHolders.n[best] {
			best = s
		}
	}
	shardHolders.n[best]++
	return best
}

// releaseShard is the finalizer of a pooled context: it runs once the
// collector has dropped the context from ctxPool.
func releaseShard(c *pooledCtx) {
	shardHolders.mu.Lock()
	shardHolders.n[c.shard]--
	shardHolders.mu.Unlock()
}

// pooledCtx is the allocation behind a pooled context: the context
// padded up to a size class whose objects start on a 128-byte boundary,
// so the memory one injector rewrites for every packet shares no cache
// line (nor the line the adjacent-line prefetcher pairs with it) with
// another injector's. Unpadded, after a collection one injector's
// context is allocated from the span that holds the other's: 3 of 16
// two-injector runs then lost 15–20 % (EXPERIMENTS.md "NF/MAU fast
// path"); a quiet trace, rewritten per packet too, lives on the
// injector's stack. The array length stops compiling if the context
// outgrows the class.
type pooledCtx struct {
	Ctx
	_ [256 - unsafe.Sizeof(Ctx{})]byte
}

// pooledMem pads a context's burst memory the same way; a context pointing
// into its own allocation would never be finalized and keep its shard.
type pooledMem struct {
	burstMem
	_ [384 - unsafe.Sizeof(burstMem{})]byte
}

// TraceBuf is the storage of one traced injection: InjectInto's, or one
// packet's of InjectBurst. It is the trace with room for an ordinary
// journey — the §5 chain with one recirculation is four pipelet steps
// and one emission — so recording it allocates nothing more; a
// longer journey outgrows the room by append. A kept trace pins the
// storage it lives in, so the room is no larger: 288 bytes, a size class.
type TraceBuf struct {
	Trace
	steps [4]Step
	out   [1]Emitted
}

// ctxPool recycles per-packet contexts across injections. A new
// context takes a free counter shard and keeps it until the collector
// drops the context, so however many injector goroutines run (up to
// ctxShards), their counters land on different shards.
var ctxPool = sync.Pool{New: func() any {
	c := new(pooledCtx)
	c.shard = acquireShard()
	c.mem = &new(pooledMem).burstMem
	runtime.SetFinalizer(c, releaseShard)
	return &c.Ctx
}}

// portDeltaPool recycles the port-counter tables of bursts; a table goes
// back empty. Its size class starts objects on 128-byte boundaries as is.
var portDeltaPool = sync.Pool{New: func() any { return new(portDelta) }}

// New creates a switch with all ports in normal mode and empty
// pipelet programs (packets pass through unmodified).
//
//dv:snapshotwriter
func New(prof Profile) *Switch {
	s := &Switch{
		prof:        prof,
		frontStats:  make([]*PortStats, prof.TotalPorts()),
		recircStats: make([]*PortStats, prof.Pipelines),
		cpuStats:    &PortStats{},
		turns:       make([]atomic.Uint64, prof.Pipelines),
	}
	for i := range s.frontStats {
		s.frontStats[i] = &PortStats{}
	}
	for i := range s.recircStats {
		s.recircStats[i] = &PortStats{}
	}
	s.snap.Store(&snapshot{
		loopback:  make([]LoopbackMode, prof.TotalPorts()),
		portDown:  make([]bool, prof.TotalPorts()),
		ingress:   make([]StageFunc, prof.Pipelines),
		egress:    make([]StageFunc, prof.Pipelines),
		loopbacks: make([][]PortID, prof.Pipelines),
	})
	return s
}

// update applies one configuration mutation copy-on-write and
// publishes the new snapshot.
//
//dv:snapshotwriter
func (s *Switch) update(f func(*snapshot)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.snap.Load().clone()
	f(n)
	s.snap.Store(n)
}

// Profile returns the switch's static description.
func (s *Switch) Profile() Profile { return s.prof }

// SetFaultHook installs (or, with nil, removes) the switch's fault
// interception layer.
func (s *Switch) SetFaultHook(h FaultHook) {
	s.update(func(sn *snapshot) { sn.faults = h })
}

// SetTelemetry attaches (or, with nil, detaches) a datapath counter
// set. Like every switch configuration it is published through the
// snapshot swap: in-flight packets finish against the old value, new
// packets count into the new one, and the hot path pays only a nil
// check when telemetry is off.
func (s *Switch) SetTelemetry(d *telemetry.Datapath) {
	if d != nil {
		// A fast-path packet takes exactly one ingress, TM and egress
		// traversal; snapshots use this constant to fold the one-atomic
		// fast-path counter into the latency histogram.
		d.SetFastPathLatency(uint64(s.prof.IngressLatency + s.prof.TMLatency + s.prof.EgressLatency))
	}
	s.update(func(sn *snapshot) { sn.tel = d })
}

// Telemetry returns the attached datapath counter set, or nil.
func (s *Switch) Telemetry() *telemetry.Datapath { return s.snap.Load().tel }

// SetPortAdminState marks a front-panel port up or down. A down port
// refuses injected traffic, loses packets emitted through it, and
// drops recirculations if it was in loopback mode — the behavioural
// equivalent of a link flap.
func (s *Switch) SetPortAdminState(port PortID, up bool) error {
	if !s.prof.ValidPort(port) || IsRecircPort(port) || port == PortCPU {
		return fmt.Errorf("asic: port %d is not a front-panel port", port)
	}
	s.update(func(sn *snapshot) { sn.portDown[port] = !up })
	return nil
}

// PortIsUp reports whether a port is administratively up. Dedicated
// recirculation ports and the CPU port are always up.
func (s *Switch) PortIsUp(port PortID) bool {
	if IsRecircPort(port) || port == PortCPU {
		return true
	}
	return s.snap.Load().portUp(port)
}

// SetLoopback configures a front-panel port's loopback mode. A port in
// loopback can no longer take external traffic: Inject on it fails. It
// takes its turn among its pipeline's loopback ports: traffic the
// branching sends to the pipeline's dedicated recirculation port leaves
// through those ports in ascending order, one packet each.
func (s *Switch) SetLoopback(port PortID, mode LoopbackMode) error {
	if !s.prof.ValidPort(port) {
		return fmt.Errorf("asic: no such port %d", port)
	}
	if IsRecircPort(port) || port == PortCPU {
		return fmt.Errorf("asic: port %d mode is fixed", port)
	}
	s.update(func(sn *snapshot) {
		sn.loopback[port] = mode
		sn.loopbacks = make([][]PortID, s.prof.Pipelines)
		for p, m := range sn.loopback {
			if m != LoopbackOff {
				pipe := s.prof.PipelineOf(PortID(p))
				sn.loopbacks[pipe] = append(sn.loopbacks[pipe], PortID(p))
			}
		}
	})
	return nil
}

// LoopbackModeOf returns the port's loopback mode. Dedicated
// recirculation ports are always on-chip loopback.
func (s *Switch) LoopbackModeOf(port PortID) LoopbackMode {
	if IsRecircPort(port) {
		return LoopbackOnChip
	}
	return s.snap.Load().loopbackOf(port)
}

// LoopbackPorts returns the front-panel ports currently in loopback,
// ascending.
func (s *Switch) LoopbackPorts() []PortID {
	var out []PortID
	for _, ports := range s.snap.Load().loopbacks {
		out = append(out, ports...)
	}
	return out
}

// InstallIngress sets the ingress pipelet program of a pipeline.
func (s *Switch) InstallIngress(pipeline int, fn StageFunc) error {
	if pipeline < 0 || pipeline >= s.prof.Pipelines {
		return fmt.Errorf("asic: no such pipeline %d", pipeline)
	}
	s.update(func(sn *snapshot) { sn.ingress[pipeline] = fn })
	return nil
}

// InstallEgress sets the egress pipelet program of a pipeline.
func (s *Switch) InstallEgress(pipeline int, fn StageFunc) error {
	if pipeline < 0 || pipeline >= s.prof.Pipelines {
		return fmt.Errorf("asic: no such pipeline %d", pipeline)
	}
	s.update(func(sn *snapshot) { sn.egress[pipeline] = fn })
	return nil
}

// Batch accumulates pipelet program writes and an application-state
// swap so Commit can publish them as ONE snapshot: a packet injected
// before the commit runs entirely against the old programs and state,
// a packet injected after runs entirely against the new — there is no
// window where a pipeline runs a new program while a sibling still
// runs an old one. This is the transactional half of a live
// reconfiguration; InstallIngress/InstallEgress remain for callers
// that replace a single program and need no cross-pipeline atomicity.
type Batch struct {
	ingress map[int]StageFunc
	egress  map[int]StageFunc
	app     any
	setApp  bool
}

// NewBatch returns an empty program batch for this switch.
func (s *Switch) NewBatch() *Batch {
	return &Batch{ingress: make(map[int]StageFunc), egress: make(map[int]StageFunc)}
}

// SetIngress stages an ingress pipelet program write.
func (b *Batch) SetIngress(pipeline int, fn StageFunc) { b.ingress[pipeline] = fn }

// SetEgress stages an egress pipelet program write.
func (b *Batch) SetEgress(pipeline int, fn StageFunc) { b.egress[pipeline] = fn }

// SetApp stages an application-state swap (published as Ctx.App).
func (b *Batch) SetApp(app any) { b.app, b.setApp = app, true }

// Len returns the number of staged writes (programs plus app swap).
func (b *Batch) Len() int {
	n := len(b.ingress) + len(b.egress)
	if b.setApp {
		n++
	}
	return n
}

// Commit validates and publishes the whole batch as one snapshot swap.
// On error nothing is applied.
func (s *Switch) Commit(b *Batch) error {
	for pipe := range b.ingress {
		if pipe < 0 || pipe >= s.prof.Pipelines {
			return fmt.Errorf("asic: no such pipeline %d", pipe)
		}
	}
	for pipe := range b.egress {
		if pipe < 0 || pipe >= s.prof.Pipelines {
			return fmt.Errorf("asic: no such pipeline %d", pipe)
		}
	}
	s.update(func(sn *snapshot) {
		for pipe, fn := range b.ingress {
			sn.ingress[pipe] = fn
		}
		for pipe, fn := range b.egress {
			sn.egress[pipe] = fn
		}
		if b.setApp {
			sn.app = b.app
			sn.tally, _ = b.app.(TallySink)
		}
	})
	return nil
}

// App returns the currently published application state, or nil.
func (s *Switch) App() any { return s.snap.Load().app }

// Stats returns the cumulative counters of a port: an index into the
// preallocated per-port counters for every port the profile knows, an
// RLock-guarded overflow map for anything else.
func (s *Switch) Stats(port PortID) *PortStats {
	if int(port) < len(s.frontStats) {
		return s.frontStats[port]
	}
	if IsRecircPort(port) {
		if i := int(port - recircPortBase); i < len(s.recircStats) {
			return s.recircStats[i]
		}
	}
	if port == PortCPU {
		return s.cpuStats
	}
	s.extraMu.RLock()
	st := s.extraStats[port]
	s.extraMu.RUnlock()
	if st != nil {
		return st
	}
	s.extraMu.Lock()
	defer s.extraMu.Unlock()
	if st = s.extraStats[port]; st == nil {
		if s.extraStats == nil {
			s.extraStats = make(map[PortID]*PortStats)
		}
		st = &PortStats{}
		s.extraStats[port] = st
	}
	return st
}

// portDeltaSlots is the size of a burst's port-counter table: every
// front-panel port of the profiles in use has a slot of its own.
const portDeltaSlots = 64

// portDelta accumulates a burst's per-port traffic in plain memory.
// Every injector whose packets use a port adds to the same PortStats
// line, so InjectQuietBatch pays those atomic adds once per burst and
// port instead of up to six times per packet (recirculation port and
// exit port); a nil delta means add directly. It is a direct-mapped
// table: a port that finds its slot taken by another flushes that one
// tally and takes the slot over.
type portDelta struct {
	used  uint64 // bit i set: slot i holds a tally
	tally [portDeltaSlots]portTally
}

type portTally struct {
	rxPackets, rxBytes, txPackets, txBytes uint64
	port                                   PortID
}

// of returns the burst's tally for a port.
func (d *portDelta) of(s *Switch, port PortID) *portTally {
	// The dedicated recirculation ports start at a multiple of the table
	// size; the shift moves them off the first front-panel ports' slots.
	i := (port + port>>6) % portDeltaSlots
	t := &d.tally[i]
	if d.used&(1<<i) == 0 {
		d.used |= 1 << i
		t.port = port
	} else if t.port != port {
		t.flush(s)
		t.port = port
	}
	return t
}

// flush adds the accumulated tallies to the ports' counters and
// empties the delta.
func (d *portDelta) flush(s *Switch) {
	for used := d.used; used != 0; used &= used - 1 {
		d.tally[bits.TrailingZeros64(used)].flush(s)
	}
	d.used = 0
}

func (t *portTally) flush(s *Switch) {
	st := s.Stats(t.port) //dv:allow hotpath: profile ports hit preallocated arrays; the locked overflow map serves only out-of-profile ports
	if t.rxPackets != 0 {
		st.RxPackets.Add(t.rxPackets)
		st.RxBytes.Add(t.rxBytes)
	}
	if t.txPackets != 0 {
		st.TxPackets.Add(t.txPackets)
		st.TxBytes.Add(t.txBytes)
	}
	*t = portTally{}
}

// countTx charges one transmitted packet to a port.
func (s *Switch) countTx(pd *portDelta, port PortID, bytes uint64) {
	if pd != nil {
		t := pd.of(s, port)
		t.txPackets++
		t.txBytes += bytes
		return
	}
	st := s.Stats(port) //dv:allow hotpath: profile ports hit preallocated arrays; the locked overflow map serves only out-of-profile ports
	st.TxPackets.Add(1)
	st.TxBytes.Add(bytes)
}

// countLoopback charges one recirculated packet to the loopback port
// it leaves and re-enters through.
func (s *Switch) countLoopback(pd *portDelta, port PortID, bytes uint64) {
	if pd != nil {
		t := pd.of(s, port)
		t.txPackets++
		t.txBytes += bytes
		t.rxPackets++
		t.rxBytes += bytes
		return
	}
	st := s.Stats(port) //dv:allow hotpath: profile ports hit preallocated arrays; the locked overflow map serves only out-of-profile ports
	st.TxPackets.Add(1)
	st.TxBytes.Add(bytes)
	st.RxPackets.Add(1)
	st.RxBytes.Add(bytes)
}

// Drops returns the number of packets dropped switch-wide (summed
// across the sharded cells).
func (s *Switch) Drops() uint64 { return s.drops.Load() }

// DrainCPU returns and clears the packets delivered to the CPU port: the
// punts of every burst that has returned or filled a chunk. The packets
// and the slice are the caller's until the next DrainCPU, which takes them
// back: later punts reuse their memory, so a packet kept past it must be
// copied. What the switch keeps for reuse is at most one chunk and one
// slice of CPUChunkMax packets; the rest of a drain goes to the collector.
func (s *Switch) DrainCPU() []*packet.Parsed {
	s.cpuMu.Lock()
	defer s.cpuMu.Unlock()
	out := s.cpuQueue
	s.cpuDepth.Add(-int32(len(out)))
	next := s.cpuLent[:0]
	if cap(next) > CPUChunkMax {
		next = nil
	}
	s.cpuQueue, s.cpuLent = next, out
	if cap(s.lent.chunk) > cap(s.spare.chunk) {
		s.spare = s.lent
	}
	s.lent, s.queued = s.queued, puntMem{}
	return out
}

// CPUQueueDepth returns the number of punted packets waiting for the
// control plane; it never exceeds cpuQueueCap.
func (s *Switch) CPUQueueDepth() int {
	s.cpuMu.Lock()
	defer s.cpuMu.Unlock()
	return len(s.cpuQueue)
}

// admit is the port-level admission every injection passes once.
func (s *Switch) admit(sn *snapshot, in PortID) error {
	switch {
	case !s.prof.ValidPort(in) || IsRecircPort(in) || in == PortCPU:
		return fmt.Errorf("asic: cannot inject on port %d", in)
	case sn.loopbackOf(in) != LoopbackOff:
		return fmt.Errorf("asic: port %d is in loopback mode and takes no external traffic", in)
	case !sn.portUp(in):
		return fmt.Errorf("asic: port %d is down", in)
	}
	return nil
}

// Inject runs a packet offered to a front-panel port through the switch
// and returns its trace: InjectInto a fresh buffer. It fails on a port
// that does not exist or is in loopback mode (taking no external traffic).
func (s *Switch) Inject(in PortID, pkt *packet.Parsed) (*Trace, error) {
	return s.InjectInto(in, pkt, new(TraceBuf))
}

// InjectInto is Inject recording into the caller's buffer, a traced burst
// of one: buf is overwritten, and the trace returned lives in it.
func (s *Switch) InjectInto(in PortID, pkt *packet.Parsed, buf *TraceBuf) (*Trace, error) {
	var err [1]error
	buf.Trace = Trace{}
	s.inject(in, []*packet.Parsed{pkt}, nil, unsafe.Slice(buf, 1), err[:])
	return buf.journey(), err[0]
}

// InjectBurst is Inject for a burst of packets entering through one port,
// recording into the caller's storage: bufs[i] is overwritten, and
// traces[i] and errs[i] become what Inject(in, pkts[i]) would have
// returned, the trace living in bufs[i]. All three must be as long as
// pkts. The burst sees one snapshot, pays InjectQuietBatch's per-burst
// costs and allocates nothing for journeys that fit their TraceBuf.
func (s *Switch) InjectBurst(in PortID, pkts []*packet.Parsed, bufs []TraceBuf, traces []*Trace, errs []error) {
	bufs, errs = bufs[:len(pkts)], errs[:len(pkts)]
	for i := range bufs {
		bufs[i].Trace = Trace{}
	}
	clear(errs)
	s.inject(in, pkts, nil, bufs, errs)
	for i := range bufs {
		traces[i] = bufs[i].journey()
	}
}

// journey is what Inject returns of a filled trace: nil for a refusal.
func (t *TraceBuf) journey() *Trace {
	if t.DropCode == telemetry.DropRefused {
		return nil
	}
	return &t.Trace
}

// InjectQuiet is the no-trace fast path: it runs the packet exactly
// like Inject but records no per-step history and allocates nothing in
// steady state, returning only the scalar disposition. Use it for
// high-rate traffic engines; use Inject when the traversal matters.
//
//dv:hotpath
func (s *Switch) InjectQuiet(in PortID, pkt *packet.Parsed) (QuietResult, error) {
	var tr Trace
	one := [1]*packet.Parsed{pkt}
	br := s.inject(in, one[:], &tr, nil, nil)
	return QuietResult{
		Dropped:        tr.Dropped,
		DropReason:     tr.DropReason,
		DropCode:       tr.DropCode,
		Emitted:        tr.emitCount,
		ToCPU:          tr.cpuCount,
		Resubmissions:  tr.Resubmissions,
		Recirculations: tr.Recirculations,
		Latency:        tr.Latency,
	}, br.Err
}

// BatchResult aggregates the dispositions of one InjectQuietBatch
// burst. Field semantics mirror the per-packet tallies a traffic
// engine keeps over InjectQuiet: Errors counts packets whose injection
// returned an error (refused at the port, or the pass-budget loop
// guard), Dropped counts in-switch drops, and a packet lands in
// exactly one of Delivered/Dropped/ToCPU/Errors.
type BatchResult struct {
	Injected       int           // packets offered (len(pkts))
	Delivered      int           // left through a front-panel port
	Dropped        int           // dropped inside the switch (excl. errored packets)
	ToCPU          int           // punted to the control plane
	Errors         int           // refused at the port or pass-budget exceeded
	Emitted        int           // wire copies incl. mirrors, summed
	Resubmissions  int           // summed across the batch
	Recirculations int           // summed across the batch
	Latency        time.Duration // summed modelled latency of completed packets

	// Err is the port-level admission error when the whole batch was
	// refused (invalid, loopback or down port), or the first per-packet
	// injection error otherwise; nil when every packet completed.
	Err error
}

// batchTelFlushEvery bounds how many packets accumulate into one
// DatapathDelta before it is flushed: each packet contributes at most
// maxPasses traversals per pipeline, so 256 packets stay well inside
// the delta's uint16 fields.
const batchTelFlushEvery = 256

// tallyFlushEvery does the same for the application tally: a packet
// adds at most 255 (service indices) × 2 × maxPasses to a cell, so
// 65 536 packets stay inside its uint32.
const tallyFlushEvery = 1 << 16

// InjectQuietBatch runs a burst of packets through the quiet hot path
// while paying the per-packet fixed costs once per burst: one config
// snapshot load, one pooled Ctx checkout, one stats update per port the
// burst touched (ingress, loopback and exit ports alike; the counters
// show the burst once it has returned), one telemetry flush (a single
// fast-path matrix add per pipeline pair plus one batched delta flush),
// one flush of the programs' own counters (TallySink) and one CPU-queue
// append. Dispositions are aggregated — callers that need per-packet
// results use InjectQuiet. Every packet in the batch enters through the
// same port and runs against the same configuration snapshot: a hot swap
// lands between batches, never inside one.
//
//dv:hotpath
func (s *Switch) InjectQuietBatch(in PortID, pkts []*packet.Parsed) BatchResult {
	var tr Trace
	return s.inject(in, pkts, &tr, nil, nil)
}

// resetQuiet readies a quiet trace for the next packet. A quiet trace
// never records, so its slices stay nil and only the scalars the
// previous packet wrote need clearing.
//
//dv:hotpath
func (tr *Trace) resetQuiet() {
	tr.Resubmissions, tr.Recirculations, tr.Latency = 0, 0, 0
	tr.Dropped, tr.DropReason, tr.DropCode = false, "", telemetry.DropNone
	tr.quiet, tr.emitCount, tr.cpuCount = true, 0, 0
}

// refuse marks the trace of a packet refused at the port.
func (tr *Trace) refuse(err error) {
	tr.Dropped, tr.DropCode, tr.DropReason = true, telemetry.DropRefused, err.Error()
}

// fail counts packet i's injection error; a traced burst keeps it in errs.
func (br *BatchResult) fail(errs []error, i int, err error) {
	br.Errors++
	if br.Err == nil {
		br.Err = err
	}
	if errs != nil {
		errs[i] = err
	}
}

// inject is the one injection core behind Inject, InjectBurst,
// InjectQuiet and InjectQuietBatch: port admission once, the packets one
// after another against one snapshot, one epilogue that pays the burst's
// port counters, application tally, punts and telemetry. Only where a
// packet's trace goes varies: packet i of a traced burst records into
// block[i], zeroed, its error into errs[i]; else all overwrite quiet.
//
//dv:hotpath
func (s *Switch) inject(in PortID, pkts []*packet.Parsed, quiet *Trace, block []TraceBuf, errs []error) BatchResult {
	br := BatchResult{Injected: len(pkts)}
	if len(pkts) == 0 {
		return br
	}
	sn := s.snap.Load()
	if err := s.admit(sn, in); err != nil { //dv:allow hotpath: cold admission-error path
		if sn.tel != nil {
			sn.tel.Shard(uintptr(in) << 6).RefusedN(uint64(len(pkts)))
		}
		if block == nil {
			quiet.refuse(err)
		}
		for i := range block {
			block[i].refuse(err)
			errs[i] = err
		}
		br.Errors, br.Err = len(pkts), err
		return br
	}

	ctx := ctxPool.Get().(*Ctx)
	shard := ctx.shard
	ctx.mem.room = len(pkts) // through ctx at every use: the loop has no register left for it
	// A burst pays its port and program counters once; a lone packet adds
	// to the shared cells directly, 15–40 ns cheaper than the detour.
	var pd *portDelta
	ctx.tallying = len(pkts) > 1 && sn.tally != nil
	if len(pkts) > 1 {
		pd = portDeltaPool.Get().(*portDelta)
	}
	var sh *telemetry.DatapathShard
	telPipes := 0
	if sn.tel != nil {
		sh = sn.tel.Shard(uintptr(shard) << 6)
		telPipes = min(sn.tel.Pipelines(), telemetry.MaxPipelines)
	}
	var rxPkts, rxBytes uint64
	var sinceFlush int
	for i, pkt := range pkts {
		if ctx.tallying && i%tallyFlushEvery == tallyFlushEvery-1 {
			sn.tally.FlushTally(shard, &ctx.tally)
		}
		tr := quiet
		if block == nil {
			tr.resetQuiet()
		} else {
			t := &block[i]
			tr = &t.Trace
			tr.Steps, tr.Out = t.steps[:0], t.out[:0]
		}
		if sn.faults != nil {
			if err := sn.faults.OnInject(in, pkt); err != nil {
				err = fmt.Errorf("asic: inject fault on port %d: %w", in, err) //dv:allow hotpath: cold admission-error path
				s.drops.Add(shard)
				if sh != nil {
					sh.Refused()
				}
				tr.refuse(err)
				br.fail(errs, i, err)
				continue
			}
		}
		rxPkts++
		rxBytes += uint64(pkt.WireLen())
		ctx.Pkt = pkt
		ctx.Meta = Meta{InPort: in, OutPort: PortUnset}
		ctx.Pipelet = PipeletID{}
		ctx.App = sn.app
		err := s.run(sn, ctx, tr, pd)
		switch {
		case err != nil:
			br.fail(errs, i, err)
		case tr.Dropped:
			br.Dropped++
		case tr.cpuCount > 0:
			br.ToCPU++
		default:
			br.Delivered++
		}
		br.Emitted += tr.emitCount
		br.Resubmissions += tr.Resubmissions
		br.Recirculations += tr.Recirculations
		br.Latency += tr.Latency
		if sh == nil {
			continue
		}
		// Fast-path packets move from the accumulated delta into the
		// burst's matrix (one batched FastDoneN at the end); everything
		// else takes the per-packet disposition/histogram update and
		// leaves its traversals in the delta for the batched flush.
		pe := ctx.Pipelet.Pipeline
		if tr.DropCode == telemetry.DropNone && tr.cpuCount == 0 && tr.emitCount == 1 &&
			tr.Recirculations == 0 && tr.Resubmissions == 0 && ctx.Meta.Passes == 1 {
			// Passes==1 means InPort was never rewritten by a
			// recirculation, so it still names the ingress pipeline.
			if pi := s.prof.PipelineOf(ctx.Meta.InPort); pi >= 0 && pi < telPipes && pe >= 0 && pe < telPipes {
				ctx.tel.Ingress[pi]--
				ctx.tel.Egress[pe]--
				ctx.mem.fast[pi*telPipes+pe]++
				continue
			}
		}
		sh.PacketDone(tr.DropCode, tr.cpuCount, tr.Recirculations, tr.emitCount, int64(tr.Latency))
		if sinceFlush++; sinceFlush >= batchTelFlushEvery {
			sh.Flush(&ctx.tel)
			ctx.tel = telemetry.DatapathDelta{}
			sinceFlush = 0
		}
	}

	if rxPkts > 0 {
		st := s.Stats(in) //dv:allow hotpath: profile ports hit preallocated arrays; the locked overflow map serves only out-of-profile ports
		st.RxPackets.Add(rxPkts)
		st.RxBytes.Add(rxBytes)
	}
	if pd != nil {
		pd.flush(s)
		portDeltaPool.Put(pd)
	}
	if ctx.tallying {
		sn.tally.FlushTally(shard, &ctx.tally)
	}
	if mem := ctx.mem; len(mem.punts) > 0 {
		s.queuePunts(mem) //dv:allow hotpath: CPU punts leave the fast path; the control-plane queue is lock-guarded by design
	}
	if sh != nil {
		sh.Flush(&ctx.tel)
		for k, n := range ctx.mem.fast[:telPipes*telPipes] {
			if n != 0 {
				sh.FastDoneN(k/telPipes, k%telPipes, uint64(n))
				ctx.mem.fast[k] = 0
			}
		}
		ctx.tel = telemetry.DatapathDelta{} // leave the pooled delta clean
	}
	ctxPool.Put(ctx)
	return br
}

// run executes the packet until it leaves the switch, is dropped, or
// exceeds the pass budget. It reads configuration exclusively from the
// snapshot captured at injection: a packet in flight is never torn
// between two configurations, and the loop takes zero locks.
//
//dv:hotpath
func (s *Switch) run(sn *snapshot, ctx *Ctx, tr *Trace, pd *portDelta) error {
	// Per-traversal events accumulate in the context's plain-memory
	// delta (inject flushes them in one batch); pipelines beyond the
	// delta's fixed bound — no real profile has them — fall back to
	// direct shard adds.
	var sh *telemetry.DatapathShard
	if sn.tel != nil {
		sh = sn.tel.Shard(uintptr(ctx.shard) << 6)
	}
	for {
		ctx.Meta.Passes++
		if ctx.Meta.Passes > maxPasses {
			tr.Dropped = true
			tr.DropReason = "pass budget exceeded (routing loop?)"
			tr.DropCode = telemetry.DropPassBudget
			s.drops.Add(ctx.shard)
			return fmt.Errorf("asic: %s", tr.DropReason) //dv:allow hotpath: terminal routing-loop error, once per packet lifetime
		}
		pipeline := s.prof.PipelineOf(ctx.Meta.InPort)

		// Ingress pipelet.
		ctx.Pipelet = PipeletID{Pipeline: pipeline, Dir: Ingress}
		if !tr.quiet {
			tr.Steps = append(tr.Steps, Step{Pipelet: ctx.Pipelet}) //dv:allow hotpath: traced mode only; quiet traces never append
		}
		if sh != nil {
			if pipeline < telemetry.MaxPipelines {
				ctx.tel.Ingress[pipeline]++
			} else {
				sh.IngressPass(pipeline)
			}
		}
		tr.Latency += s.prof.IngressLatency
		if ing := sn.ingress[pipeline]; ing != nil {
			ing(ctx)
		}

		if ctx.Meta.Drop {
			tr.Dropped = true
			tr.DropReason = "dropped in ingress"
			tr.DropCode = telemetry.DropIngress
			s.drops.Add(ctx.shard)
			return nil
		}
		if ctx.Meta.ToCPU {
			s.toCPU(ctx, tr) //dv:allow hotpath: CPU punt leaves the fast path; the control-plane queue is lock-guarded by design
			return nil
		}
		if ctx.Meta.Resubmit {
			// Constraint (a): resubmission re-enters the same ingress
			// parser; constraint (d): it stays in the pipeline.
			ctx.Meta.Resubmit = false
			tr.Resubmissions++
			if sh != nil {
				if pipeline < telemetry.MaxPipelines {
					ctx.tel.Resubmits[pipeline]++
				} else {
					sh.Resubmission(pipeline)
				}
			}
			tr.Latency += s.prof.ResubmitLatency
			if !tr.quiet {
				tr.Steps[len(tr.Steps)-1].Note = "resubmit"
			}
			continue
		}

		// Traffic manager: forward to the egress pipe of the pipeline
		// owning the chosen egress port.
		out := ctx.Meta.OutPort
		if out == PortUnset {
			tr.Dropped = true
			tr.DropReason = "no egress port chosen"
			tr.DropCode = telemetry.DropNoEgress
			s.drops.Add(ctx.shard)
			return nil
		}
		if !s.prof.ValidPort(out) {
			tr.Dropped = true
			tr.DropCode = telemetry.DropInvalidPort
			tr.DropReason = tr.DropCode.String()
			if !tr.quiet {
				tr.DropReason = fmt.Sprintf("invalid egress port %d", out) //dv:allow hotpath: traced mode formats rich drop reasons
			}
			s.drops.Add(ctx.shard)
			return nil
		}
		if out == PortCPU {
			s.toCPU(ctx, tr) //dv:allow hotpath: CPU punt leaves the fast path; the control-plane queue is lock-guarded by design
			return nil
		}
		tr.Latency += s.prof.TMLatency

		if ctx.Meta.Mirror && ctx.Meta.MirrorPort != PortUnset {
			// Mirrored copy leaves immediately from the TM; a lost
			// mirror does not affect the original packet.
			cp := ctx.Pkt.Clone() //dv:allow hotpath: mirror copies allocate by design; the non-mirrored fast path never reaches this
			s.emit(sn, ctx.Meta.MirrorPort, cp, tr, pd)
			ctx.Meta.Mirror = false
		}

		egPipeline := s.prof.PipelineOf(out)
		ctx.Pipelet = PipeletID{Pipeline: egPipeline, Dir: Egress}
		if !tr.quiet {
			tr.Steps = append(tr.Steps, Step{Pipelet: ctx.Pipelet}) //dv:allow hotpath: traced mode only; quiet traces never append
		}
		if sh != nil {
			if egPipeline < telemetry.MaxPipelines {
				ctx.tel.Egress[egPipeline]++
			} else {
				sh.EgressPass(egPipeline)
			}
		}
		tr.Latency += s.prof.EgressLatency
		if eg := sn.egress[egPipeline]; eg != nil {
			eg(ctx)
		}
		if ctx.Meta.Drop {
			tr.Dropped = true
			tr.DropReason = "dropped in egress"
			tr.DropCode = telemetry.DropEgress
			s.drops.Add(ctx.shard)
			return nil
		}
		if ctx.Meta.ToCPU {
			s.toCPU(ctx, tr) //dv:allow hotpath: CPU punt leaves the fast path; the control-plane queue is lock-guarded by design
			return nil
		}

		// Constraint (b): recirculation happens because the egress port
		// is in loopback mode, not by a per-packet decision at egress.
		// Traffic for the dedicated port takes the pipeline's loopback
		// ports in turn when it has any.
		mode := LoopbackOnChip
		if !IsRecircPort(out) {
			mode = sn.loopbackOf(out)
		} else if ports := sn.loopbacks[egPipeline]; len(ports) > 0 {
			out = ports[(s.turns[egPipeline].Add(1)-1)%uint64(len(ports))]
			mode = sn.loopback[out]
		}
		if mode == LoopbackOff {
			if ok, reason, code := s.emit(sn, out, ctx.Pkt, tr, pd); !ok {
				tr.Dropped = true
				tr.DropReason = reason
				tr.DropCode = code
				s.drops.Add(ctx.shard)
			}
			return nil
		}
		if !IsRecircPort(out) && !sn.portUp(out) {
			tr.Dropped = true
			tr.DropCode = telemetry.DropRecircDead
			tr.DropReason = tr.DropCode.String()
			if !tr.quiet {
				tr.DropReason = fmt.Sprintf("recirculated into dead port %d", out) //dv:allow hotpath: traced mode formats rich drop reasons
			}
			s.drops.Add(ctx.shard)
			return nil
		}
		if sn.faults != nil && !sn.faults.OnRecirculate(out, ctx.Pkt) {
			tr.Dropped = true
			tr.DropCode = telemetry.DropRecircOverload
			tr.DropReason = tr.DropCode.String()
			if !tr.quiet {
				tr.DropReason = fmt.Sprintf("recirculation queue overload at port %d", out) //dv:allow hotpath: traced mode formats rich drop reasons
			}
			s.drops.Add(ctx.shard)
			return nil
		}
		// Constraint (d): the packet re-enters the ingress pipe of the
		// loopback port's own pipeline.
		tr.Recirculations++
		if sh != nil {
			if egPipeline < telemetry.MaxPipelines {
				ctx.tel.Recircs[egPipeline]++
			} else {
				sh.Recirculation(egPipeline)
			}
		}
		switch mode {
		case LoopbackOnChip:
			tr.Latency += s.prof.RecircOnChip
		case LoopbackOffChip:
			tr.Latency += s.prof.RecircOffChip
		}
		if !tr.quiet {
			tr.Steps[len(tr.Steps)-1].Note = "recirculate"
		}
		s.countLoopback(pd, out, uint64(ctx.Pkt.WireLen()))
		ctx.Meta.InPort = out
		ctx.Meta.OutPort = PortUnset
		ctx.Meta.Recirc = false
	}
}

// cpuQueueCap bounds the punted packets waiting for the control plane
// (DESIGN.md §8 "Slow path" has the reasoning behind the value).
const cpuQueueCap = 4096

// CPUChunkMax is the most packets a CPU-queue chunk holds — the engines'
// burst — and the most punts' or traces' memory the switch and the
// control plane keep for reuse between drains.
const CPUChunkMax = 32

// puntMem is a chunk of punt copies at its full capacity and the arena
// the bytes of its last packets went into.
type puntMem struct {
	chunk []packet.Parsed
	arena []byte
}

// burstMem is the plain memory a burst works in beside its context: its
// punts on their way to the CPU queue — the copies in punts, a prefix of
// the chunk, their bytes in the arena — and fast[pi*telPipes+pe], its
// fast-path packets until the epilogue posts one FastDoneN a pipeline pair
// (on inject's stack it cost a lone packet 13 ns; a pointer to it held
// across the loop, bare-forward 12 %).
type burstMem struct {
	puntMem
	punts []packet.Parsed
	room  int // punts the burst can still make: one a packet
	fast  [telemetry.MaxPipelines * telemetry.MaxPipelines]uint32
}

// toCPU copies the packet for the control plane, or drops it
// (DropCPUQueueFull) when the queue is at its cap. The copy takes its
// slot of the cap at once — one atomic, so bound and drop count are exact
// whoever else punts — and goes into the burst's chunk: the switch's
// spare when it is large enough, else a new one, in either case sliced to
// what the burst can still fill, at most CPUChunkMax, so a burst takes one
// chunk and one arena and makes one locked queue append.
func (s *Switch) toCPU(ctx *Ctx, tr *Trace) {
	if s.cpuDepth.Add(1) > cpuQueueCap {
		s.cpuDepth.Add(-1)
		tr.Dropped = true
		tr.DropCode = telemetry.DropCPUQueueFull
		tr.DropReason = tr.DropCode.String()
		s.drops.Add(ctx.shard)
		return
	}
	b := ctx.mem
	n := len(b.punts)
	if n == cap(b.punts) {
		if n > 0 {
			s.queuePunts(b)
		}
		want := min(b.room, CPUChunkMax)
		b.puntMem = s.takeSpare(want)
		b.punts, n = b.chunk[:0:want], 0
	}
	b.room--
	b.punts = b.punts[:n+1]
	b.arena = ctx.Pkt.CloneIntoArena(&b.punts[n], b.arena, cap(b.punts)-n-1)
	tr.cpuCount++
	if !tr.quiet {
		tr.CPU = append(tr.CPU, ctx.Pkt.Clone())
	}
}

// takeSpare returns the spare chunk and its emptied arena when the chunk
// holds want packets, else a new chunk of want and no arena.
func (s *Switch) takeSpare(want int) puntMem {
	s.cpuMu.Lock()
	m := s.spare
	if cap(m.chunk) >= want {
		s.spare = puntMem{}
	}
	s.cpuMu.Unlock()
	if cap(m.chunk) < want {
		return puntMem{chunk: make([]packet.Parsed, want)}
	}
	m.arena = m.arena[:0]
	return m
}

// queuePunts moves the buffered punts to the CPU queue and hands the chunk
// and arena they live in to the switch, which keeps the largest chunk of
// a drain for reuse once the drain after it has taken the packets back.
func (s *Switch) queuePunts(b *burstMem) {
	s.cpuMu.Lock()
	if s.cpuQueue == nil {
		s.cpuQueue = make([]*packet.Parsed, 0, len(b.punts))
	}
	for i := range b.punts {
		s.cpuQueue = append(s.cpuQueue, &b.punts[i])
	}
	if cap(b.chunk) > cap(s.queued.chunk) {
		s.queued = b.puntMem
	}
	s.cpuMu.Unlock()
	b.puntMem, b.punts = puntMem{}, nil
}

// emit records a packet leaving through a front-panel port. It reports
// failure (the reason and its typed code) when the port is
// administratively down or an injected fault loses the packet on the
// wire.
func (s *Switch) emit(sn *snapshot, port PortID, pkt *packet.Parsed, tr *Trace, pd *portDelta) (bool, string, telemetry.DropReason) {
	if !IsRecircPort(port) && port != PortCPU && !sn.portUp(port) {
		if !tr.quiet {
			return false, fmt.Sprintf("egress port %d down", port), telemetry.DropPortDown //dv:allow hotpath: traced mode formats rich drop reasons
		}
		return false, telemetry.DropPortDown.String(), telemetry.DropPortDown
	}
	if sn.faults != nil && !sn.faults.OnEmit(port, pkt) {
		if !tr.quiet {
			return false, fmt.Sprintf("packet lost on wire at port %d", port), telemetry.DropWire //dv:allow hotpath: traced mode formats rich drop reasons
		}
		return false, telemetry.DropWire.String(), telemetry.DropWire
	}
	s.countTx(pd, port, uint64(pkt.WireLen()))
	tr.emitCount++
	if !tr.quiet {
		tr.Out = append(tr.Out, Emitted{Port: port, Pkt: pkt}) //dv:allow hotpath: traced mode only; quiet traces never append
	}
	return true, "", telemetry.DropNone
}
