package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/packet"
	"dejavu/internal/scenario"
)

// referenceInject is a second Fabric.Inject — a FIFO slice of pending
// offers, a fresh switch trace per traversal, every slice grown by append,
// the mirror fix applied — that shares no per-hop code with it: switch
// death from SwitchHealth, each wire's far end and health from a scan of
// Wires(), and its own call of the wire hook the fabric was given. The
// one-allocation Inject must equal it.
func referenceInject(f *Fabric, hook WireHook, sw int, port asic.PortID, pkt *packet.Parsed) (*FabricTrace, error) {
	if sw < 0 || sw >= len(f.Switches) {
		return nil, fmt.Errorf("cluster: no such switch %d", sw)
	}
	ft := &FabricTrace{}
	queue := []pending{{sw: sw, port: port, pkt: pkt}}
	for len(queue) > 0 {
		if ft.Hops > maxFabricHops {
			return ft, fmt.Errorf("cluster: packet exceeded %d fabric hops (wiring loop?)", maxFabricHops)
		}
		cur := queue[0]
		queue = queue[1:]
		if f.SwitchHealth(cur.sw) == HealthDead {
			ft.Dropped = true
			ft.DropReasons = append(ft.DropReasons, fmt.Sprintf("switch %d dead", cur.sw))
			continue
		}
		tr, err := f.Switches[cur.sw].Inject(cur.port, cur.pkt)
		if err != nil {
			return ft, err
		}
		ft.PerSwitch = append(ft.PerSwitch, tr)
		ft.Latency += tr.Latency
		if tr.Dropped {
			ft.Dropped = true
		}
		for range tr.CPU {
			ft.CPUSwitch = append(ft.CPUSwitch, cur.sw)
		}
		for _, out := range tr.Out {
			var wire *Wire
			for _, w := range f.Wires() {
				if w.FromSw == cur.sw && w.FromPort == out.Port {
					wire = &w
					break
				}
			}
			if wire == nil {
				ft.Out = append(ft.Out, out)
				ft.OutSwitch = append(ft.OutSwitch, cur.sw)
				continue
			}
			fwd, ok := out.Pkt, true
			switch {
			case wire.Health == HealthDead:
				ft.DropReasons = append(ft.DropReasons, fmt.Sprintf("wire %d:%d cut", cur.sw, out.Port))
				ok = false
			case hook != nil:
				if fwd, ok = hook(cur.sw, out.Port, fwd); !ok {
					ft.DropReasons = append(ft.DropReasons, fmt.Sprintf("wire %d:%d corruption destroyed packet", cur.sw, out.Port))
				}
			}
			if !ok {
				ft.Dropped = true
				continue
			}
			ft.Hops++
			ft.Latency += f.Prof.RecircOffChip
			queue = append(queue, pending{sw: wire.ToSw, port: wire.ToPort, pkt: fwd})
		}
	}
	return ft, nil
}

// exported is a trace's exported fields with empty slices as nil: the
// contents two journeys must agree on, whatever storage they live in.
func exported(ft *FabricTrace) FabricTrace {
	return FabricTrace{
		PerSwitch: orNil(ft.PerSwitch), Hops: ft.Hops, Latency: ft.Latency,
		Out: orNil(ft.Out), OutSwitch: orNil(ft.OutSwitch), CPUSwitch: orNil(ft.CPUSwitch),
		Dropped: ft.Dropped, DropReasons: orNil(ft.DropReasons),
	}
}

func orNil[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// hopBehaviour is what a switch of a random fabric does with the packets
// of one key (UDP source port mod 8).
type hopBehaviour struct {
	out, mirror             asic.PortID // mirror PortUnset: none
	resubmit, recirc, punt  bool
	ingressDrop, egressDrop bool
}

// randomFabric builds a spine of n switches (NewSpineFabric's wiring, and
// sometimes a wire from the last switch back to the first, a loop) whose
// switches act on a packet by its key: forward along the spine, skip a
// switch, leave, mirror, resubmit, recirculate, punt or drop. Health is
// drawn per switch and per wire, and a wire hook, returned too (nil when
// none was installed), corrupts or destroys some packets. Two fabrics
// built from one seed are identical.
func randomFabric(t *testing.T, seed int64) (*Fabric, WireHook) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(5)
	f, err := NewSpineFabric(asic.Wedge100B(), n)
	if err != nil {
		t.Fatal(err)
	}
	if n > 1 && rng.Intn(4) == 0 {
		if err := f.Connect(n-1, 12, 0, 12); err != nil {
			t.Fatal(err)
		}
	}
	health := func() Health {
		if rng.Intn(10) == 0 {
			return HealthDead
		}
		return HealthAlive
	}
	for i, sw := range f.Switches {
		var table [8]hopBehaviour
		for k := range table {
			b := &table[k]
			switch r := rng.Intn(10); {
			case r < 4:
				b.out = 10
			case r < 6:
				b.out = 11
			case r < 7:
				b.out = 12
			default:
				b.out = asic.PortID(1 + rng.Intn(3))
			}
			b.mirror = asic.PortUnset
			if rng.Intn(4) == 0 {
				b.mirror = []asic.PortID{10, 11, 2}[rng.Intn(3)]
			}
			b.resubmit, b.recirc, b.punt = rng.Intn(8) == 0, rng.Intn(6) == 0, rng.Intn(16) == 0
			b.ingressDrop, b.egressDrop = rng.Intn(16) == 0, rng.Intn(8) == 0
		}
		ingress := func(c *asic.Ctx) {
			b := &table[c.Pkt.UDP.SrcPort%8]
			switch {
			case b.ingressDrop:
				c.Meta.Drop = true
			case b.punt:
				c.Meta.ToCPU = true
			case b.resubmit && c.Meta.Passes == 1:
				c.Meta.Resubmit = true
			case b.recirc && c.Meta.Passes <= 2:
				c.Meta.OutPort = asic.RecircPort(0)
			default:
				c.Meta.OutPort = b.out
				if b.mirror != asic.PortUnset {
					c.Meta.Mirror, c.Meta.MirrorPort = true, b.mirror
				}
			}
		}
		egress := func(c *asic.Ctx) {
			if b := &table[c.Pkt.UDP.SrcPort%8]; b.egressDrop && c.Meta.OutPort == b.out {
				c.Meta.Drop = true
			}
		}
		for p := 0; p < sw.Profile().Pipelines; p++ {
			if err := sw.InstallIngress(p, ingress); err != nil {
				t.Fatal(err)
			}
			if err := sw.InstallEgress(p, egress); err != nil {
				t.Fatal(err)
			}
		}
		if h := health(); h != HealthAlive {
			if err := f.setSwitchHealth(i, h); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, w := range f.Wires() {
		if h := health(); h != HealthAlive {
			if err := f.setWireHealth(w.FromSw, w.FromPort, h); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rng.Intn(2) != 0 {
		return f, nil
	}
	hook := func(sw int, port asic.PortID, pkt *packet.Parsed) (*packet.Parsed, bool) {
		switch (sw + int(port) + int(pkt.UDP.SrcPort)) % 7 {
		case 0:
			return nil, false
		case 1:
			cp := pkt.Clone()
			cp.UDP.SrcPort++
			cp.IPv4.TTL--
			return cp, true
		}
		return pkt, true
	}
	f.SetWireHook(hook)
	return f, hook
}

// TestFabricInjectMatchesReference holds the one-allocation Inject to the
// parent's, over random spine fabrics of 1–5 switches in random health
// with random per-switch behaviour, a corrupting wire hook, wiring loops
// and mirror fan-outs: the same offers in the same order, so every
// exported FabricTrace field, every per-switch Trace, the error and the
// switches' drop counters must be equal.
func TestFabricInjectMatchesReference(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 400; seed++ {
		got, _ := randomFabric(t, seed)
		want, hook := randomFabric(t, seed)
		rng := rand.New(rand.NewSource(-seed))
		for k := 0; k < 16; k++ {
			sw, port := 0, asic.PortID(rng.Intn(6))
			switch rng.Intn(40) {
			case 0:
				sw = len(got.Switches) // no such switch
			case 1:
				port = 999
			}
			pkt := scenario.InternetBound()
			pkt.UDP.SrcPort = uint16(rng.Intn(1 << 16))
			gft, gerr := got.Inject(sw, port, pkt.Clone())
			wft, werr := referenceInject(want, hook, sw, port, pkt)
			for _, s := range append(got.Switches, want.Switches...) {
				s.DrainCPU()
			}
			where := fmt.Sprintf("seed %d packet %d (switch %d port %d key %d)", seed, k, sw, port, pkt.UDP.SrcPort%8)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s: error %v, reference %v", where, gerr, werr)
			}
			if (gft == nil) != (wft == nil) {
				t.Fatalf("%s: trace %v, reference %v", where, gft, wft)
			}
			if gft == nil {
				continue
			}
			if g, w := exported(gft), exported(wft); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s:\n got %+v\nwant %+v", where, g, w)
			}
			for i := range gft.PerSwitch {
				if !reflect.DeepEqual(*gft.PerSwitch[i], *wft.PerSwitch[i]) {
					t.Fatalf("%s: switch trace %d\n got %+v\nwant %+v", where, i, *gft.PerSwitch[i], *wft.PerSwitch[i])
				}
			}
			if gerr != nil {
				seen["error"]++
			} else {
				seen[fmt.Sprintf("%d switches", len(gft.PerSwitch))]++
			}
			if 1+gft.Hops > 4 { // Inject's queue holds 4 copies on its stack
				seen["queue past its room"]++
			}
			if len(gft.PerSwitch) > len(gft.perSwitch) {
				seen["traversals past their room"]++
			}
			if len(gft.Out) > len(gft.out) {
				seen["exits past their room"]++
			}
			if gft.Dropped && len(gft.Out) > 0 {
				seen["a drop and an exit"]++
			}
			if len(gft.DropReasons) > 0 {
				seen["fabric drop"]++
			}
			if len(gft.CPUSwitch) > 0 {
				seen["punt"]++
			}
		}
		for i := range got.Switches {
			if g, w := got.Switches[i].Drops(), want.Switches[i].Drops(); g != w {
				t.Fatalf("seed %d: switch %d dropped %d, reference %d", seed, i, g, w)
			}
		}
	}
	t.Logf("journeys: %v", seen)
	for _, c := range []string{"error", "1 switches", "2 switches", "3 switches", "4 switches",
		"queue past its room", "traversals past their room", "exits past their room",
		"a drop and an exit", "fabric drop", "punt"} {
		if seen[c] == 0 {
			t.Errorf("no journey covered %q (%v)", c, seen)
		}
	}
}

// TestFabricFollowsMirrorOfDroppedPacket: switch 0 mirrors a packet onto
// the wire to switch 1 and drops the original in egress. The copy it
// emitted crosses the wire and leaves switch 1; the journey still reports
// the drop.
func TestFabricFollowsMirrorOfDroppedPacket(t *testing.T) {
	f, err := NewFabric(asic.Wedge100B(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Connect(0, wirePort, 1, wirePort); err != nil {
		t.Fatal(err)
	}
	sw0 := f.Switches[0]
	for p := 0; p < sw0.Profile().Pipelines; p++ {
		if err := sw0.InstallIngress(p, func(c *asic.Ctx) {
			c.Meta.Mirror, c.Meta.MirrorPort = true, wirePort
			c.Meta.OutPort = 3
		}); err != nil {
			t.Fatal(err)
		}
		if err := sw0.InstallEgress(p, func(c *asic.Ctx) { c.Meta.Drop = true }); err != nil {
			t.Fatal(err)
		}
	}
	forwardAllTo(t, f.Switches[1], 1)

	ft, err := f.Inject(0, scenario.PortClient, scenario.InternetBound())
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.PerSwitch) != 2 || !ft.PerSwitch[0].Dropped || len(ft.PerSwitch[0].Out) != 1 {
		t.Fatalf("switch traces = %+v, want switch 0's drop with one mirror copy out, then switch 1", ft.PerSwitch)
	}
	if !ft.Dropped || ft.Hops != 1 || len(ft.Out) != 1 || ft.OutSwitch[0] != 1 || ft.Out[0].Port != 1 {
		t.Fatalf("journey = %+v, want the drop reported and the mirror copy out of switch 1 port 1 after one hop", ft)
	}
}

// TestFabricProbeOneAllocation: a §5 probe across two switches of a
// 4-switch spine — classifier and firewall on switch 0, the rest on
// switch 1, the LB session installed — is one allocation, its
// FabricTrace; the parent made 8.
func TestFabricProbeOneAllocation(t *testing.T) {
	s := scenario.MustNew()
	f, err := NewSpineFabric(s.Prof, 4)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := NewFabricDeployment(f, s.Chains, s.NFs, nil)
	if err != nil {
		t.Fatal(err)
	}
	fd.Pins = map[string]int{"classifier": 0, "fw": 0, "vgw": 1, "lb": 1, "router": 1}
	if rep, err := NewReconciler(fd).Reconcile(); err != nil || len(rep.Blackholed) != 0 {
		t.Fatalf("reconcile: %v, blackholed %v", err, rep)
	}
	tmpl := scenario.ClientTCP(443)
	ft, err := f.Inject(0, scenario.PortClient, tmpl.Clone()) // LB miss: punted, learned
	if err != nil || len(ft.CPUSwitch) != 1 {
		t.Fatalf("first packet: %+v, %v", ft, err)
	}
	if _, err := fd.Controllers[ft.CPUSwitch[0]].Poll(); err != nil {
		t.Fatal(err)
	}
	var pkt packet.Parsed
	probe := func() {
		pkt.CopyFrom(tmpl)
		ft, err = f.Inject(0, scenario.PortClient, &pkt)
	}
	probe()
	if err != nil || ft.Dropped || len(ft.PerSwitch) != 2 || ft.Hops != 1 || len(ft.Out) != 1 || ft.OutSwitch[0] != 1 {
		t.Fatalf("probe = %+v, %v; want delivered by switch 1 after one hop", ft, err)
	}
	if raceEnabled {
		t.Skip("race detector: the switch's pooled contexts are refilled at random")
	}
	if got := testing.AllocsPerRun(200, probe); got != 1 {
		t.Errorf("2-switch probe = %.1f allocations, want 1", got)
	}
}

// TestFabricPlanMatchesCommit: over random spine fabrics of 1–5 switches
// in random health, a Plan toward a chain set stages exactly the writes
// that the Reconcile toward that set then commits, and each switch's
// controller counts exactly them: its EntryWrites grow by the switch's
// branching ops and its ProgramWrites by its reloaded pipelets, and a
// switch without a write-set commits nothing. The walk repeats the first
// round unchanged, then twice kills or revives a switch and changes the
// chain set, and ends with every switch dead, where no switch is usable,
// and every switch revived.
func TestFabricPlanMatchesCommit(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 30; seed++ {
		f, _ := randomFabric(t, seed)
		s := scenario.MustNew()
		fd, err := NewFabricDeployment(f, s.Chains, s.NFs, fabricDemand())
		if err != nil {
			t.Fatal(err)
		}
		rec := NewReconciler(fd)
		rng := rand.New(rand.NewSource(-seed))
		for round := 0; round < 6; round++ {
			chains := fd.Chains
			switch round {
			case 2, 3:
				sw := rng.Intn(len(f.Switches))
				if err := f.setSwitchHealth(sw, Health(1-f.SwitchHealth(sw))); err != nil {
					t.Fatal(err)
				}
				chains = nil
				for _, k := range rng.Perm(len(s.Chains))[:1+rng.Intn(len(s.Chains))] {
					chains = append(chains, s.Chains[k])
				}
			case 4, 5:
				for sw := range f.Switches {
					if err := f.setSwitchHealth(sw, Health(5-round)); err != nil { // dead, then alive
						t.Fatal(err)
					}
				}
			}
			where := fmt.Sprintf("seed %d round %d (%d switches, chains %v)", seed, round, len(f.Switches), chains)
			plan, planErr := fd.Plan(chains)
			if err := fd.SetChains(chains); err != nil {
				t.Fatal(err)
			}
			before := controllerWrites(fd)
			rep, err := rec.Reconcile()
			if fmt.Sprint(planErr) != fmt.Sprint(err) {
				t.Fatalf("%s: Plan error %v, Reconcile error %v", where, planErr, err)
			}
			if err != nil {
				seen["refused"]++
				continue
			}
			if !reflect.DeepEqual(plan.Writes, rep.Writes) || !reflect.DeepEqual(plan.Changed, rep.Changed) {
				t.Fatalf("%s: Plan writes %+v on %v, Reconcile wrote %+v on %v", where, plan.Writes, plan.Changed, rep.Writes, rep.Changed)
			}
			want := make([][2]int, len(f.Switches))
			for _, w := range rep.Writes {
				want[w.Switch] = [2]int{len(w.Delta), len(w.Programs)}
			}
			after := controllerWrites(fd)
			for sw := range after {
				if got := [2]int{after[sw][0] - before[sw][0], after[sw][1] - before[sw][1]}; got != want[sw] {
					t.Fatalf("%s: switch %d's controller committed %d entries and %d programs, the report says %d and %d",
						where, sw, got[0], got[1], want[sw][0], want[sw][1])
				}
			}
			switch {
			case len(rep.Switches) == 0:
				seen["no switch used"]++
			case rep.Converged:
				seen["converged"]++
			default:
				seen[fmt.Sprintf("writes on %d switches", len(rep.Writes))]++
			}
		}
	}
	t.Logf("rounds: %v", seen)
	for _, c := range []string{"no switch used", "converged", "writes on 1 switches", "writes on 2 switches"} {
		if seen[c] == 0 {
			t.Errorf("no round covered %q (%v)", c, seen)
		}
	}
}

// controllerWrites is each switch controller's committed entry and
// program writes.
func controllerWrites(fd *FabricDeployment) [][2]int {
	out := make([][2]int, len(fd.Controllers))
	for i, c := range fd.Controllers {
		st := c.Stats()
		out[i] = [2]int{st.EntryWrites, st.ProgramWrites}
	}
	return out
}
