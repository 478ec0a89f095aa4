// Package ctl implements the merged control plane of a Dejavu
// deployment (§3.1, §7 "Control plane merge"): a single controller
// owning the control-plane state of every NF in the chain, a unified
// table-write API that dispatches to the right NF (the translation
// layer §7 calls for), and the packet-in path — LB session learning,
// NAT allocation, and reinjection of punted packets into the data
// plane.
package ctl

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"dejavu/internal/asic"
	"dejavu/internal/mau"
	"dejavu/internal/nf"
	"dejavu/internal/nsh"
	"dejavu/internal/packet"
	"dejavu/internal/route"
)

// natFirstPort is the first public port the NAT allocator hands out;
// the last is 65535.
const natFirstPort = 50000

// ErrNATPortsExhausted is returned for a NAT miss once every public
// port has been handed out. The punted packet is not reinjected.
var ErrNATPortsExhausted = errors.New("ctl: nat public ports exhausted")

// Controller is the merged control plane of one switch.
type Controller struct {
	sw  *asic.Switch
	nfs nf.List

	mu          sync.Mutex
	natNextPort int // next public port of the NAT; exhausted past 65535

	tally // packet-in counters
	// Program transaction counters.
	programCommits int
	entryWrites    int
	programWrites  int

	// prog is the open program transaction, if any (see program.go).
	prog *pendingProgram

	// VerifyCommit, when set, runs right after every UpdateProgram
	// commit; an error rolls the switch back to the prior programs.
	// Production leaves it nil — it is the one seam tests use to force a
	// post-commit failure. Set it before the controller is shared.
	VerifyCommit func() error

	// Poll's storage, reused from one call to the next, which pollMu
	// serializes: the traces it returns live in bufs until then. It is
	// one burst's worth, asic.CPUChunkMax; a larger drain is served from
	// storage the controller does not keep.
	pollMu sync.Mutex
	bufs   []asic.TraceBuf
	traces []*asic.Trace
	errs   []error
}

// tally is a batch of packet-in outcomes: a Poll counts into its own
// and adds it to the controller's under one lock.
type tally struct {
	sessionsInstalled int
	natAllocated      int
	reinjected        int
	unknown           int
	failed            int
	tableFull         int
}

// count adds a batch of outcomes to the controller's counters.
func (c *Controller) count(t tally) {
	c.mu.Lock()
	c.sessionsInstalled += t.sessionsInstalled
	c.natAllocated += t.natAllocated
	c.reinjected += t.reinjected
	c.unknown += t.unknown
	c.failed += t.failed
	c.tableFull += t.tableFull
	c.mu.Unlock()
}

// New creates a controller for a switch running the given NFs.
func New(sw *asic.Switch, nfs nf.List) *Controller {
	return &Controller{sw: sw, nfs: nfs, natNextPort: natFirstPort}
}

// lb returns the chain's load balancer, if any.
func (c *Controller) lb() *nf.LoadBalancer {
	if f, ok := c.nfs.ByName("lb").(*nf.LoadBalancer); ok {
		return f
	}
	return nil
}

// nat returns the chain's NAT, if any.
func (c *Controller) nat() *nf.NAT {
	if f, ok := c.nfs.ByName("nat").(*nf.NAT); ok {
		return f
	}
	return nil
}

// chains returns the branching state published with the switch's
// programs (compose.Runtime carries it), which knows the paths the
// installed chains declare; nil when the switch publishes none.
func (c *Controller) chains() *route.Branching {
	if rt, ok := c.sw.App().(interface{ Branching() *route.Branching }); ok {
		return rt.Branching()
	}
	return nil
}

// HandlePacketIn processes one punted packet: it installs whatever
// state the responsible NF was missing and reports whether the packet
// should be reinjected.
func (c *Controller) HandlePacketIn(pkt *packet.Parsed) (reinject bool, err error) {
	var t tally
	reinject, err = c.handle(c.lb(), c.nat(), c.chains(), pkt, &t)
	c.count(t)
	return reinject, err
}

// handle is HandlePacketIn on the caller's NFs, chain set and tally. A
// punt is repaired only when installing state can have been what it
// waited for: a packet stamped with a path no chain declares (its chain
// was removed) or whose NAT mapping is already in would be punted again
// the moment it is back, so it is counted unknown and goes no further —
// reinjected, it would never leave the CPU queue, and mapped afresh every
// round it would eat the NAT table.
func (c *Controller) handle(lb *nf.LoadBalancer, nat *nf.NAT, chains *route.Branching, pkt *packet.Parsed, t *tally) (reinject bool, err error) {
	k0, k1, ok := pkt.FlowWords()
	if path := pkt.SFC.ServicePathID; ok && path != 0 && chains != nil {
		_, ok = chains.ChainIndex(path) // false: the chain was removed
	}
	if !ok {
		t.unknown++
		return false, nil
	}

	// LB session miss: the destination still names a VIP.
	if dst := pkt.IPv4.Dst; lb != nil && lb.IsVIP(dst) {
		hash := packet.FlowHash(k0, k1)
		backend, err := lb.SelectBackend(dst, hash)
		if err != nil {
			return false, err
		}
		if err := lb.InstallSession(hash, backend); err != nil {
			return false, fmt.Errorf("ctl: session install: %w", err)
		}
		t.sessionsInstalled++
		return true, nil
	}

	// NAT miss: allocate a public port. The allocator moves on only once
	// the mapping is in, so a failed install costs no port. The source
	// port is the one the flow words carry, big-endian in k1's bytes 1–2.
	src, sport, proto := pkt.IPv4.Src, bits.ReverseBytes16(uint16(k1>>8)), pkt.IPv4.Protocol
	if nat != nil && !nat.HasMapping(src, sport, proto) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.natNextPort > 0xFFFF {
			return false, ErrNATPortsExhausted
		}
		if err := nat.InstallMapping(src, sport, proto, uint16(c.natNextPort)); err != nil {
			return false, fmt.Errorf("ctl: nat install: %w", err)
		}
		c.natNextPort++
		t.natAllocated++
		return true, nil
	}

	t.unknown++
	return false, nil
}

// inPort prepares a handled packet for the data plane and returns the
// port it goes back in through: the one recorded in its SFC platform
// metadata. The punt flags are cleared — the packet re-enters with a
// clean verdict, now that the missing state is installed.
func inPort(pkt *packet.Parsed) asic.PortID {
	pkt.SFC.Meta.Clear(nsh.FlagToCPU | nsh.FlagDrop | nsh.FlagResubmit | nsh.FlagRecirculate)
	return asic.PortID(pkt.SFC.Meta.InPort)
}

// Poll drains the switch's CPU queue, handles every punted packet, and
// then reinjects the ones whose state was repaired ("the control plane
// will simply install a new session ... and reinject the packet", §3.1)
// on the port recorded in their SFC platform metadata, a traced burst
// per run of packets that entered through the same port. One packet's
// failure (a full session table, an unusable in-port) does not stop the
// drain: every drained packet is handled, and Poll returns the traces of
// the reinjected ones, in drain order, together with the joined errors
// of the rest, which Stats.Failed counts (and Stats.TableFull those a
// full table refused). Reinjection is traced: the trace is what
// core.Deployment.Inject returns for a repaired punt. The traces, and
// the packets they show, are valid until the next Poll, which reuses
// their memory; a caller that keeps one longer copies it. Polls are
// serialized.
func (c *Controller) Poll() ([]*asic.Trace, error) {
	c.pollMu.Lock()
	defer c.pollMu.Unlock()
	pkts := c.sw.DrainCPU()
	if len(pkts) == 0 {
		return nil, nil
	}
	lb, nat, chains := c.lb(), c.nat(), c.chains()
	var failed []error
	var t tally
	again := pkts[:0] // the drained slice is Poll's: keep the repaired ones in place
	for _, pkt := range pkts {
		switch ok, err := c.handle(lb, nat, chains, pkt, &t); {
		case err != nil:
			failed = append(failed, err)
			if errors.Is(err, mau.ErrTableFull) {
				t.tableFull++
			}
		case ok:
			again = append(again, pkt)
		}
	}

	bufs, traces, errs := c.scratch(len(again))
	for from := 0; from < len(again); {
		in, to := inPort(again[from]), from+1
		for to < len(again) && inPort(again[to]) == in {
			to++
		}
		c.sw.InjectBurst(in, again[from:to], bufs[from:to], traces[from:to], errs[from:to])
		from = to
	}
	done := traces[:0]
	for i, err := range errs {
		if err != nil {
			failed = append(failed, err)
			continue
		}
		done = append(done, traces[i])
	}
	t.reinjected, t.failed = len(done), len(failed)
	c.count(t)
	return done, errors.Join(failed...)
}

// scratch returns Poll's storage for n reinjections: the controller's own
// for up to a burst, storage it does not keep for more.
func (c *Controller) scratch(n int) ([]asic.TraceBuf, []*asic.Trace, []error) {
	if n > asic.CPUChunkMax {
		return make([]asic.TraceBuf, n), make([]*asic.Trace, n), make([]error, n)
	}
	if c.bufs == nil {
		c.bufs = make([]asic.TraceBuf, asic.CPUChunkMax)
		c.traces = make([]*asic.Trace, asic.CPUChunkMax)
		c.errs = make([]error, asic.CPUChunkMax)
	}
	return c.bufs[:n], c.traces[:n], c.errs[:n]
}

// Stats reports controller activity.
type Stats struct {
	SessionsInstalled int
	NATAllocated      int
	Reinjected        int
	Unknown           int
	// Failed counts punted packets Poll could not handle or reinject.
	Failed int
	// TableFull counts the Failed punts whose state a full table refused
	// (mau.ErrTableFull).
	TableFull int
	// ProgramCommits counts committed program transactions.
	ProgramCommits int
	// EntryWrites counts branching-table entry ops committed.
	EntryWrites int
	// ProgramWrites counts pipelet-program swaps committed.
	ProgramWrites int
}

// Stats returns a snapshot of controller counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		SessionsInstalled: c.sessionsInstalled,
		NATAllocated:      c.natAllocated,
		Reinjected:        c.reinjected,
		Unknown:           c.unknown,
		Failed:            c.failed,
		TableFull:         c.tableFull,
		ProgramCommits:    c.programCommits,
		EntryWrites:       c.entryWrites,
		ProgramWrites:     c.programWrites,
	}
}

// TableWrite is the unified control-plane API (§7): a write against
// the merged program is routed to the owning NF's native API. The
// supported (nf, table) pairs mirror the per-NF control interfaces.
type TableWrite struct {
	NF    string
	Table string
	// Args carries the native arguments; see the per-case documentation
	// in Apply.
	Args []any
}

// Apply routes a table write to the right NF. Supported writes:
//
//	{"lb", "lb_session", [hash uint32, backend packet.IP4]}
//	{"router", "ipv4_lpm", [prefix packet.IP4, plen int, nh nf.NextHop]}
//	{"fw", "fw_acl", [rule nf.ACLRule]}
//	{"classifier", "class_map", [rule nf.ClassRule]}
//	{"vgw", "vni_table", [vni uint32, tenant uint16]}
//
// Writes against the "framework" pseudo-NF (branching entry diffs and
// pipelet program swaps) are staged into the open program transaction;
// see program.go.
func (c *Controller) Apply(w TableWrite) error {
	if w.NF == FrameworkNF {
		return c.stageFramework(w)
	}
	f := c.nfs.ByName(w.NF)
	if f == nil {
		return fmt.Errorf("ctl: unknown NF %q", w.NF)
	}
	bad := func() error {
		return fmt.Errorf("ctl: bad arguments for %s/%s", w.NF, w.Table)
	}
	switch w.NF + "/" + w.Table {
	case "lb/lb_session":
		lb, ok := f.(*nf.LoadBalancer)
		if !ok || len(w.Args) != 2 {
			return bad()
		}
		hash, ok1 := w.Args[0].(uint32)
		backend, ok2 := w.Args[1].(packet.IP4)
		if !ok1 || !ok2 {
			return bad()
		}
		return lb.InstallSession(hash, backend)
	case "router/ipv4_lpm":
		r, ok := f.(*nf.Router)
		if !ok || len(w.Args) != 3 {
			return bad()
		}
		prefix, ok1 := w.Args[0].(packet.IP4)
		plen, ok2 := w.Args[1].(int)
		nh, ok3 := w.Args[2].(nf.NextHop)
		if !ok1 || !ok2 || !ok3 {
			return bad()
		}
		return r.AddRoute(prefix, plen, nh)
	case "fw/fw_acl":
		fw, ok := f.(*nf.Firewall)
		if !ok || len(w.Args) != 1 {
			return bad()
		}
		rule, ok1 := w.Args[0].(nf.ACLRule)
		if !ok1 {
			return bad()
		}
		return fw.AddRule(rule)
	case "classifier/class_map":
		cl, ok := f.(*nf.Classifier)
		if !ok || len(w.Args) != 1 {
			return bad()
		}
		rule, ok1 := w.Args[0].(nf.ClassRule)
		if !ok1 {
			return bad()
		}
		return cl.AddRule(rule)
	case "vgw/vni_table":
		v, ok := f.(*nf.VGW)
		if !ok || len(w.Args) != 2 {
			return bad()
		}
		vni, ok1 := w.Args[0].(uint32)
		tenant, ok2 := w.Args[1].(uint16)
		if !ok1 || !ok2 {
			return bad()
		}
		return v.AddVNI(vni, tenant)
	default:
		return fmt.Errorf("ctl: unknown table %s/%s", w.NF, w.Table)
	}
}
