package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"dejavu/internal/asic"
	"dejavu/internal/packet"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
)

// The dry run's latency is the weight-averaged latency of the packets
// the fabric then carries. Plan used to convert the weighted crossings
// and recirculations — fractions of a packet — to integers before
// multiplying, and reported 1.445 µs for the §5 chain set where its own
// probes take 2.38 µs.
func TestPlanLatencyMatchesTracedProbes(t *testing.T) {
	s, f, fd, rec := newSpineDeployment(t, 4)
	if _, err := rec.Reconcile(); err != nil {
		t.Fatal(err)
	}
	plan, err := fd.Plan(fd.Chains)
	if err != nil {
		t.Fatal(err)
	}
	probes := map[uint16]func() *packet.Parsed{
		scenario.PathFull:   func() *packet.Parsed { return scenario.ClientTCP(443) },
		scenario.PathMedium: scenario.TenantBound,
		scenario.PathBasic:  scenario.InternetBound,
	}
	var traced, totalW float64
	for _, c := range s.Chains {
		ft, err := f.Inject(0, scenario.PortClient, probes[c.PathID]())
		if err != nil || ft.Dropped || len(ft.Out) != 1 {
			t.Fatalf("chain %d probe not delivered: %v %+v", c.PathID, err, ft)
		}
		if len(ft.PerSwitch) != len(plan.Switches) {
			t.Fatalf("chain %d crosses %d switches, the plan uses %v: the estimate charges every chain every switch", c.PathID, len(ft.PerSwitch), plan.Switches)
		}
		traced += c.Weight * float64(ft.Latency)
		totalW += c.Weight
	}
	traced /= totalW
	// One wire term and one term per switch, each within a nanosecond.
	tol := float64(1 + len(plan.Switches))
	if d := float64(plan.Latency) - traced; d > tol || d < -tol {
		t.Errorf("Plan latency %v, the probes average %v", plan.Latency, time.Duration(traced))
	}
}

// Sub-chains are numbered per switch, not derived from the chain's path
// ID: PathID*16+run+1 in uint16 collided from path 4096 up and reached
// the reserved ID 0 at path 4095's sixteenth run, failing the whole plan.
func TestPlanHighPathIDManySegments(t *testing.T) {
	const n = 16
	prof := asic.Wedge100B()
	f, err := NewFabric(prof, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < n; i++ {
		if err := f.Connect(i, wirePort, i+1, wirePort); err != nil {
			t.Fatal(err)
		}
	}
	c := route.Chain{PathID: 4095, Weight: 1}
	pins := make(map[string]int)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("nf%02d", i)
		c.NFs = append(c.NFs, name)
		pins[name] = i
	}
	fd, err := NewFabricDeployment(f, []route.Chain{c, {PathID: 8191, NFs: c.NFs[:2], Weight: 1}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fd.Pins = pins
	p, err := fd.Plan(fd.Chains)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Blackholed) != 0 || p.Routes[4095].CrossHops != n-1 {
		t.Errorf("blackholed %v, chain 4095 crosses %d wires, want %d", p.Blackholed, p.Routes[4095].CrossHops, n-1)
	}
}

// samePlan compares two plans field by field.
func samePlan(t *testing.T, step int, what string, got, want *fabricPlan) {
	t.Helper()
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"routes", got.routes, want.routes}, {"homes", got.homes, want.homes},
		{"pipelets", got.pipelets, want.pipelets}, {"perSwitch", got.perSwitch, want.perSwitch},
		{"subs", got.subs, want.subs}, {"remote", got.remote, want.remote},
		{"switches", got.switches, want.switches},
		{"active", got.active, want.active}, {"dropped", got.dropped, want.dropped},
		{"cost", got.cost, want.cost}, {"strategy", got.strategy, want.strategy},
		{"latency", got.latency, want.latency},
		{"err", errText(got.err), errText(want.err)},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("step %d (%s): plan.%s = %v, planned from scratch %v", step, what, f.name, f.got, f.want)
		}
	}
}

// walkWorld is one side of the differential walk: a 4-switch spine and
// a deployment over it.
type walkWorld struct {
	s   *scenario.Scenario
	f   *Fabric
	fd  *FabricDeployment
	rec *Reconciler
}

// TestReconcilerMemoDifferentialWalk drives two identical fabrics
// through the same seeded walk of health changes, chain-set changes and
// direct edits of StageDemand and Pins. One deployment remembers its
// plan and its anneals; the other forgets both before every round, which
// is the planner of the parent commit. After every step the remembering
// plan must equal, field by field, both the plan of a fresh deployment
// over the same fabric and the forgetful twin's, the two reconcile
// reports must match, and the remembering fabric's probes must follow
// its installed routes: a routed chain's probe is delivered on its
// route or dropped by the fabric with a reason.
func TestReconcilerMemoDifferentialWalk(t *testing.T) {
	steps := 240
	if testing.Short() {
		steps = 60
	}
	var mem, ref walkWorld
	for _, w := range []*walkWorld{&mem, &ref} {
		w.s, w.f, w.fd, w.rec = newSpineDeployment(t, 4)
	}
	extra := []route.Chain{
		{PathID: 40, NFs: []string{"classifier", "fw", "router"}, Weight: 0.1},
		{PathID: 41, NFs: []string{"lb"}, Weight: 0.25},
	}
	pool := append(append([]route.Chain(nil), mem.s.Chains...), extra...)
	nfs := []string{"classifier", "fw", "vgw", "lb", "router"}
	wires := mem.f.Wires()
	rng := rand.New(rand.NewSource(16))
	probes := map[string]int{}

	// apply makes one move in a world; the random draws are made by the
	// caller so both worlds see the same move.
	type move struct {
		kind, a, b int
		w          float64
	}
	apply := func(w *walkWorld, m move) (string, error) {
		sw, wire, name := m.a%4, wires[m.a%len(wires)], nfs[m.a%len(nfs)]
		switch m.kind {
		case 0, 2: // mostly not the entry: with it dead there is nothing to plan
			if m.b%8 != 0 {
				sw = 1 + m.a%3
			}
			return fmt.Sprintf("kill switch %d", sw), w.f.KillSwitch(sw)
		case 1: // the first switch that is down, or a setter called with the current value
			for i := 0; i < 4 && w.f.SwitchHealth(sw) == HealthAlive; i++ {
				sw = (sw + 1) % 4
			}
			return fmt.Sprintf("revive switch %d", sw), w.f.ReviveSwitch(sw)
		case 3, 5:
			return fmt.Sprintf("cut %d:%d", wire.FromSw, wire.FromPort), w.f.CutLink(wire.FromSw, wire.FromPort)
		case 4: // likewise the first wire that is down
			for _, cur := range w.f.Wires() {
				if cur.Health != HealthAlive {
					wire = cur
					break
				}
			}
			return fmt.Sprintf("restore %d:%d", wire.FromSw, wire.FromPort), w.f.RestoreLink(wire.FromSw, wire.FromPort)
		case 6: // add or remove one pool chain, keeping at least one
			c := pool[m.a%len(pool)]
			var next []route.Chain
			for _, have := range w.fd.Chains {
				if have.PathID != c.PathID {
					next = append(next, have)
				}
			}
			if len(next) == len(w.fd.Chains) || len(next) == 0 {
				next = append(next, c)
			}
			return fmt.Sprintf("toggle chain %d", c.PathID), w.fd.SetChains(next)
		case 7: // re-weight
			next := append([]route.Chain(nil), w.fd.Chains...)
			next[m.a%len(next)].Weight = m.w
			return fmt.Sprintf("re-weight chain %d to %g", next[m.a%len(next)].PathID, m.w), w.fd.SetChains(next)
		case 8: // edit StageDemand in place; 13 fits a switch but no pipelet, so the plan fails
			d := 8 + m.b%2
			if m.b%8 == 7 {
				d = 13
			}
			w.fd.StageDemand[name] = d
			return fmt.Sprintf("demand[%s] = %d", name, d), nil
		case 9: // the walk leaves at most one NF unfit: repair
			for n, d := range w.fd.StageDemand {
				if d > 12 {
					w.fd.StageDemand[n] = 8
				}
			}
			return "repair demand", nil
		case 10: // pin, in place or onto a fresh map
			if w.fd.Pins == nil || m.b%4 == 0 {
				w.fd.Pins = map[string]int{}
			}
			w.fd.Pins[name] = m.b % 4
			return fmt.Sprintf("pin %s to %d", name, m.b%4), nil
		default:
			delete(w.fd.Pins, name)
			return "unpin " + name, nil
		}
	}

	// Healing moves outnumber the faults, so the walk keeps returning to
	// fabrics that host chains on two switches.
	kinds := []int{0, 0, 1, 1, 1, 1, 2, 3, 3, 4, 4, 4, 4, 5, 6, 6, 6, 7, 7, 8, 8, 9, 9, 10, 11, 11}
	for step := 0; step < steps; step++ {
		m := move{kind: kinds[rng.Intn(len(kinds))], a: rng.Intn(1 << 16), b: rng.Intn(1 << 16), w: float64(1+rng.Intn(9)) / 10}
		what, err := apply(&mem, m)
		if _, refErr := apply(&ref, m); (err == nil) != (refErr == nil) {
			t.Fatalf("step %d (%s): worlds diverged: %v / %v", step, what, err, refErr)
		}

		got := mem.fd.desired(mem.f.state.Load())
		if again := mem.fd.desired(mem.f.state.Load()); again != got && got.err == nil {
			t.Fatalf("step %d (%s): a second desired() planned again", step, what)
		}
		fresh, err := NewFabricDeployment(mem.f, mem.fd.Chains, mem.s.NFs, mem.fd.StageDemand)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Pins = mem.fd.Pins
		samePlan(t, step, what+", fresh deployment", got, fresh.desired(mem.f.state.Load()))

		ref.fd.last.plan = nil // forget: plan and anneals from scratch
		samePlan(t, step, what+", forgetful twin", got, ref.fd.desired(ref.f.state.Load()))

		repMem, errMem := mem.rec.Reconcile()
		repRef, errRef := ref.rec.Reconcile()
		if fmt.Sprint(errMem) != fmt.Sprint(errRef) {
			t.Fatalf("step %d (%s): reconcile errors differ: %v / %v", step, what, errMem, errRef)
		}
		if !reflect.DeepEqual(repMem, repRef) {
			t.Fatalf("step %d (%s): reconcile reports differ:\n%+v\n%+v", step, what, repMem, repRef)
		}
		if !reflect.DeepEqual(mem.fd.Routes, ref.fd.Routes) || !reflect.DeepEqual(mem.fd.Homes, ref.fd.Homes) ||
			!reflect.DeepEqual(mem.fd.Blackholed, ref.fd.Blackholed) || !sameInstalled(mem.fd, ref.fd) ||
			!reflect.DeepEqual(mem.fd.Control.Gather(), ref.fd.Control.Gather()) {
			t.Fatalf("step %d (%s): installed state differs", step, what)
		}
		// Every chain the installed state knows: a routed chain's probe is
		// delivered, exiting the last switch of its installed route after
		// the route's wire hops, or carries a fabric drop reason (a round
		// that failed left an older route installed); a blackholed chain
		// delivers nothing.
		for _, pr := range scenario.Probes() {
			r, routed := mem.fd.Routes[pr.PathID]
			_, blackholed := mem.fd.Blackholed[pr.PathID]
			if !routed && !blackholed {
				continue
			}
			ft, err := mem.f.Inject(0, pr.Port, pr.Packet())
			switch {
			case err != nil:
				t.Fatalf("step %d (%s): probe %s: %v", step, what, pr.Name, err)
			case blackholed && len(ft.Out) > 0:
				t.Fatalf("step %d (%s): blackholed chain %d left switches %v", step, what, pr.PathID, ft.OutSwitch)
			case blackholed:
				probes["blackholed"]++
			case pr.Verify(ft.Out) != nil && len(ft.DropReasons) == 0:
				t.Fatalf("step %d (%s): probe %s of chain %d, routed on %v, was not delivered and the fabric dropped nothing: %v",
					step, what, pr.Name, pr.PathID, r.Path, pr.Verify(ft.Out))
			case pr.Verify(ft.Out) != nil:
				probes["fabric drop"]++
			case ft.OutSwitch[0] != r.Path[len(r.Path)-1] || ft.Hops != r.CrossHops:
				t.Fatalf("step %d (%s): probe %s left switch %d after %d hop(s); installed route %v crosses %d",
					step, what, pr.Name, ft.OutSwitch[0], ft.Hops, r.Path, r.CrossHops)
			default:
				probes[fmt.Sprintf("delivered after %d hop(s)", ft.Hops)]++
			}
		}
		for _, sw := range mem.f.Switches {
			sw.DrainCPU()
		}
	}
	t.Logf("probes: %v", probes)
	if mem.fd.anneals >= ref.fd.anneals {
		t.Errorf("remembering deployment ran %d anneals, the forgetful one %d", mem.fd.anneals, ref.fd.anneals)
	}
	t.Logf("%d steps: %d anneals remembering, %d forgetting", steps, mem.fd.anneals, ref.fd.anneals)
}

// sameInstalled reports whether two deployments' switches run builds
// of the same chains and placements.
func sameInstalled(a, b *FabricDeployment) bool {
	for s := range a.installed {
		x, y := a.installed[s].Res, b.installed[s].Res
		if (x == nil) != (y == nil) || x != nil && (!route.EqualChains(x.Composer.Chains, y.Composer.Chains) ||
			!x.Composer.Placement.Equal(y.Composer.Placement)) {
			return false
		}
	}
	return true
}

// work runs fn and returns how many placement graphs it built and how
// many anneals it ran.
func (fd *FabricDeployment) work(fn func()) (graphs, anneals int) {
	g0, a0 := fd.graphBuilds, fd.anneals
	fn()
	return fd.graphBuilds - g0, fd.anneals - a0
}

// A reconcile round pays for what changed: nothing on an unchanged
// fabric, one placement and no anneal when a switch no route uses dies or
// returns, and one anneal per switch whose share of the chains changed
// when a segment moves.
func TestReconcilerRoundCostsWhatChanged(t *testing.T) {
	_, f, fd, rec := newSpineDeployment(t, 4)
	round := func(what string) *ReconcileReport {
		t.Helper()
		rep, err := rec.Reconcile()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return rep
	}
	if g, a := fd.work(func() { round("deploy") }); g != 1 || a != 2 {
		t.Fatalf("initial deploy: %d graphs, %d anneals; want 1 and one anneal per hosting switch (2)", g, a)
	}
	if !pathEquals(usedSwitches(fd), 0, 1) {
		t.Fatalf("switches in use %v, want [0 1]", usedSwitches(fd))
	}

	if g, a := fd.work(func() {
		if !round("no-op").Converged {
			t.Error("no-op round did not converge")
		}
		if _, err := fd.Plan(fd.Chains); err != nil {
			t.Error(err)
		}
	}); g != 0 || a != 0 {
		t.Errorf("no-op Reconcile + Plan: %d graphs, %d anneals; want 0 and 0", g, a)
	}

	for _, victim := range []int{2, 3} {
		for _, set := range []func(int) error{f.KillSwitch, f.ReviveSwitch} {
			if err := set(victim); err != nil {
				t.Fatal(err)
			}
			if g, a := fd.work(func() {
				if !round("unused switch").Converged {
					t.Errorf("switch %d carries no route, yet its health change reprogrammed the fabric", victim)
				}
			}); g != 1 || a != 0 {
				t.Errorf("health change of unused switch %d: %d graphs, %d anneals; want 1 and 0", victim, g, a)
			}
		}
	}

	for _, set := range []func(int) error{f.KillSwitch, f.ReviveSwitch} {
		before := fd.last.plan.subs
		if err := set(1); err != nil {
			t.Fatal(err)
		}
		g, a := fd.work(func() {
			if len(round("moved segment").Replaced) == 0 {
				t.Error("switch 1 hosts a segment, yet its health change re-placed no chain")
			}
		})
		changed := 0
		for s, subs := range fd.last.plan.subs {
			if !reflect.DeepEqual(before[s], subs) {
				changed++
			}
		}
		if g != 1 || a != changed || a != 1 {
			t.Errorf("moved segment: %d graphs, %d anneals, %d switches' sub-chain sets changed; want 1, 1, 1", g, a, changed)
		}
	}
}

// A Plan reads the remembered plan and never replaces it: after an
// adopted round, a dry run toward another chain set leaves the next
// unchanged round converged at no planning cost. It replaced the
// remembered plan, so that round built a placement graph and ran two
// anneals.
func TestPlanKeepsTheAdoptedPlan(t *testing.T) {
	s, _, fd, rec := newSpineDeployment(t, 4)
	if _, err := rec.Reconcile(); err != nil {
		t.Fatal(err)
	}
	other := append(slices.Clone(s.Chains), route.Chain{PathID: 40, NFs: []string{"classifier", "fw", "router"}, Weight: 0.1})
	if g, _ := fd.work(func() {
		if plan, err := fd.Plan(other); err != nil || len(plan.Writes) == 0 {
			t.Fatalf("Plan toward chain 40 added: %v, writes %+v", err, plan)
		}
	}); g != 1 {
		t.Fatalf("Plan toward another chain set built %d placement graphs, want 1", g)
	}
	g, a := fd.work(func() {
		if rep, err := rec.Reconcile(); err != nil || !rep.Converged || len(rep.Writes) != 0 {
			t.Fatalf("unchanged round after a Plan: %v, %+v", err, rep)
		}
	})
	if g != 0 || a != 0 {
		t.Errorf("unchanged round after a Plan: %d graphs, %d anneals; want 0 and 0", g, a)
	}
}

// The health epoch moves when — and only when — what the placement graph
// reads changes: not on a setter called with the current value, not on a
// read, not on packets offered to dead elements.
func TestReconcilerEpochMovesOnlyOnChange(t *testing.T) {
	_, f, _, rec := newSpineDeployment(t, 4)
	if _, err := rec.Reconcile(); err != nil {
		t.Fatal(err)
	}
	moves := func(what string, want bool, fn func() error) {
		t.Helper()
		before := f.state.Load().epoch
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := f.state.Load().epoch != before; got != want {
			t.Errorf("%s: epoch moved = %v, want %v", what, got, want)
		}
	}
	moves("revive an alive switch", false, func() error { return f.ReviveSwitch(2) })
	moves("kill", true, func() error { return f.KillSwitch(2) })
	moves("kill again", false, func() error { return f.KillSwitch(2) })
	moves("revive", true, func() error { return f.ReviveSwitch(2) })
	moves("revive again", false, func() error { return f.ReviveSwitch(2) })
	moves("restore an alive wire", false, func() error { return f.RestoreLink(0, 10) })
	moves("cut a wire", true, func() error { return f.CutLink(0, 10) })
	moves("cut it again", false, func() error { return f.CutLink(0, 10) })
	moves("connect", true, func() error { return f.Connect(3, 12, 0, 12) })
	moves("reads and packet offers", false, func() error {
		f.SwitchHealth(2)
		f.LinkHealth(0, 10)
		f.Wires()
		f.PlacementGraph()
		f.SetWireHook(nil)
		for i := 0; i < 3; i++ { // meets the cut wire 0:10
			if _, err := f.Inject(0, scenario.PortClient, scenario.InternetBound()); err != nil {
				return err
			}
		}
		return nil
	})
	if f.KillSwitch(9) == nil || f.CutLink(0, 13) == nil {
		t.Error("setters accepted a switch or wire that does not exist")
	}
}

// A converged round allocates its report and findings and nothing that
// scales with planning: 5 allocations on the healthy 4-switch spine (the
// report, its findings, the switch list and the route map).
func TestReconcileNoopBudget(t *testing.T) {
	_, _, fd, rec := newSpineDeployment(t, 4)
	if _, err := rec.Reconcile(); err != nil {
		t.Fatal(err)
	}
	g, a := fd.work(func() {
		allocs := testing.AllocsPerRun(100, func() {
			if rep, err := rec.Reconcile(); err != nil || !rep.Converged {
				t.Fatalf("no-op round: converged %v, err %v", rep != nil && rep.Converged, err)
			}
		})
		t.Logf("no-op reconcile: %.0f allocs", allocs)
		if allocs > 40 {
			t.Errorf("no-op reconcile allocates %.0f times, budget 40", allocs)
		}
	})
	if g != 0 || a != 0 {
		t.Errorf("no-op rounds built %d graphs and ran %d anneals", g, a)
	}
}

func benchReconcile(b *testing.B, change func(f *Fabric, i int) error) {
	_, f, _, rec := newSpineDeployment(b, 4)
	if _, err := rec.Reconcile(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := change(f, i); err != nil {
			b.Fatal(err)
		}
		if _, err := rec.Reconcile(); err != nil {
			b.Fatal(err)
		}
	}
}

// toggle kills switch sw on even rounds and revives it on odd ones.
func toggle(sw int) func(*Fabric, int) error {
	return func(f *Fabric, i int) error {
		if i%2 == 0 {
			return f.KillSwitch(sw)
		}
		return f.ReviveSwitch(sw)
	}
}

// BenchmarkReconcileNoop is a round on an unchanged fabric.
func BenchmarkReconcileNoop(b *testing.B) {
	benchReconcile(b, func(*Fabric, int) error { return nil })
}

// BenchmarkReconcileHealUnused is a round after a switch no route uses
// died or returned: one placement, no anneal, nothing reprogrammed.
func BenchmarkReconcileHealUnused(b *testing.B) { benchReconcile(b, toggle(3)) }

// BenchmarkReconcileHealMoved is a round after the switch hosting the
// chains' second segment died or returned: one placement, one anneal,
// two switches reprogrammed.
func BenchmarkReconcileHealMoved(b *testing.B) { benchReconcile(b, toggle(1)) }
