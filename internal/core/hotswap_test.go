package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/ctl"
	"dejavu/internal/fault"
	"dejavu/internal/nf"
	"dejavu/internal/packet"
	"dejavu/internal/pipeline"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
)

// assertEquivalentToFresh proves the incremental invariant: the
// deployment's current state — P4 source, branching-table program,
// placement, branching size — must be byte-identical to a from-scratch
// Deploy of the same config pinned to the same placement, which it
// returns.
func assertEquivalentToFresh(t *testing.T, d *Deployment, label string) (fresh *Deployment) {
	t.Helper()
	cfg := d.Config
	cfg.Placement = d.Placement
	fresh, err := Deploy(cfg)
	if err != nil {
		t.Fatalf("%s: fresh deploy: %v", label, err)
	}
	ip4, err := d.P4Source()
	if err != nil {
		t.Fatalf("%s: incremental P4Source: %v", label, err)
	}
	fp4, err := fresh.P4Source()
	if err != nil {
		t.Fatalf("%s: fresh P4Source: %v", label, err)
	}
	if ip4 != fp4 {
		t.Errorf("%s: P4 source differs between incremental and fresh build", label)
	}
	if d.installed.Res.Program.String() != fresh.installed.Res.Program.String() {
		t.Errorf("%s: table programs differ:\nincremental:\n%s\nfresh:\n%s",
			label, d.installed.Res.Program.String(), fresh.installed.Res.Program.String())
	}
	if ops := route.Diff(d.installed.Res.Program, fresh.installed.Res.Program); len(ops) != 0 {
		t.Errorf("%s: program diff vs fresh = %d ops", label, len(ops))
	}
	ib := d.installed.Res.Dep.Composer.Branching.BranchingEntries()
	fb := fresh.installed.Res.Dep.Composer.Branching.BranchingEntries()
	if ib != fb {
		t.Errorf("%s: branching entries differ: %d vs %d", label, ib, fb)
	}
	for _, f := range d.Config.NFs {
		ipl, iok := d.Placement.Of(f.Name())
		fpl, fok := fresh.Placement.Of(f.Name())
		if iok != fok || ipl != fpl {
			t.Errorf("%s: placement of %s differs: %v,%v vs %v,%v",
				label, f.Name(), ipl, iok, fpl, fok)
		}
	}
	return fresh
}

// faultyApplier forwards writes to a controller, except that write
// number failAt (1-based) is rejected and after write number abortAfter
// the open transaction is lost, so the commit that follows fails.
type faultyApplier struct {
	ctrl                  *ctl.Controller
	n, failAt, abortAfter int
}

func (f *faultyApplier) Apply(w ctl.TableWrite) error {
	if f.n++; f.n == f.failAt {
		return errors.New("write rejected by switch driver")
	}
	err := f.ctrl.Apply(w)
	if f.n == f.abortAfter {
		f.ctrl.AbortProgram()
	}
	return err
}

// liveState is what a failed update must leave exactly as it was: the
// chain set and settings, the artifact cache, the placement, the
// branching program and what the switch does to the three §5 probes.
type liveState struct {
	Settings  Update
	Cache     *pipeline.Cache
	Placement string
	Program   string
	Probes    []string
}

func stateOf(t *testing.T, d *Deployment) liveState {
	t.Helper()
	var placed []string
	for _, f := range d.Config.NFs {
		if pl, ok := d.Placement.Of(f.Name()); ok {
			placed = append(placed, f.Name()+"="+pl.String())
		}
	}
	return liveState{
		Settings: d.keep(d.Config.Chains), Cache: d.installed.Cache,
		Placement: strings.Join(placed, " "), Program: d.installed.Res.Program.String(),
		Probes: probeOutputs(t, d),
	}
}

// probeOutputs injects the three §5 probes and renders what came out:
// exit port and wire bytes, or the drop reason.
func probeOutputs(t *testing.T, d *Deployment) []string {
	t.Helper()
	var out []string
	for _, pkt := range []*packet.Parsed{scenario.ClientTCP(443), scenario.TenantBound(), scenario.InternetBound()} {
		tr, err := d.Inject(scenario.PortClient, pkt)
		if err != nil {
			t.Fatalf("probe: %v", err)
		}
		line := fmt.Sprintf("dropped=%v(%s) cpu=%d", tr.Dropped, tr.DropReason, len(tr.CPU))
		for _, e := range tr.Out {
			wire, err := e.Pkt.Serialize(nil)
			if err != nil {
				t.Fatalf("probe output: %v", err)
			}
			line += fmt.Sprintf(" port %d %x", e.Port, wire)
		}
		out = append(out, line)
	}
	return out
}

// TestIncrementalEquivalenceAfterChurn drives AddChain/RemoveChain and
// checks byte-identity against clean builds at every step, plus the
// acceptance criterion: a same-NF chain add serves at least two
// pipeline stages from cache and reloads no pipelet program. Then a
// seeded random walk (add, remove, re-weight, move an NF by pin) holds
// the one update path to its contract at every step:
//
//	(a) AddChain/RemoveChain ≡ Reconfigure(list) ≡ a fresh Deploy(list):
//	    placement, branching program and the probes' output bytes;
//	(b) dry run ≡ apply: same accept/reject, write-set size, program
//	    reloads and per-stage hit/miss;
//	(c) a fault at each transaction step — a staged write, the commit,
//	    the post-commit seam — leaves settings, cache, placement,
//	    program and switch at the prior state.
func TestIncrementalEquivalenceAfterChurn(t *testing.T) {
	withNAT := func() Config {
		cfg := edgeConfig()
		cfg.NFs = append(cfg.NFs, nf.NewNAT(packet.IP4{192, 0, 2, 1}, 1024))
		return cfg
	}
	d, err := Deploy(withNAT())
	if err != nil {
		t.Fatal(err)
	}

	// Same-NF chain: parser-merge and placement must be cache hits and
	// every behavioural program must be reused.
	sameNF := route.Chain{
		PathID: 41, NFs: []string{"classifier", "vgw", "router"}, Weight: 0.1, ExitPipeline: 0,
	}
	if err := d.AddChain(sameNF); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{pipeline.StageParserMerge, pipeline.StagePlacement} {
		st := d.LastBuild.Stage(name)
		if st == nil || !st.CacheHit {
			t.Errorf("same-NF add: stage %s not cached: %+v", name, st)
		}
	}
	if d.LastBuild.CacheHits < 2 {
		t.Errorf("same-NF add cached only %d stages", d.LastBuild.CacheHits)
	}
	if len(d.LastDelta) == 0 {
		t.Error("same-NF add produced an empty write-set")
	}
	for _, op := range d.LastDelta {
		if op.Op != route.OpAdd || op.Entry.Key.Path != 41 {
			t.Errorf("same-NF add write-set touched other state: %s", op)
		}
	}
	assertEquivalentToFresh(t, d, "after same-NF add")

	// New-NF chain: the parser changes, the placement grows, and the
	// result must still match a clean build.
	newNF := route.Chain{
		PathID: 40, NFs: []string{"classifier", "nat", "router"}, Weight: 0.1, ExitPipeline: 0,
	}
	if err := d.AddChain(newNF); err != nil {
		t.Fatal(err)
	}
	assertEquivalentToFresh(t, d, "after new-NF add")

	// Removal: a pure-delete write-set for the departed path.
	if err := d.RemoveChain(41); err != nil {
		t.Fatal(err)
	}
	for _, op := range d.LastDelta {
		if op.Op != route.OpDel || op.Entry.Key.Path != 41 {
			t.Errorf("remove write-set touched other state: %s", op)
		}
	}
	assertEquivalentToFresh(t, d, "after remove")

	// The walk. rec is a second deployment (its own NF objects) started
	// at d's state and driven through Reconfigure(list) only.
	rcfg := withNAT()
	rcfg.Chains, rcfg.Placement = slices.Clone(d.Config.Chains), d.Placement.Clone()
	rec, err := Deploy(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	probeOutputs(t, d) // both learn the probes' LB session up front
	probeOutputs(t, rec)

	rng := rand.New(rand.NewSource(7))
	pool := []route.Chain{
		{PathID: 50, NFs: []string{"classifier", "router"}, Weight: 0.05, ExitPipeline: 0},
		{PathID: 51, NFs: []string{"classifier", "fw", "router"}, Weight: 0.05, ExitPipeline: 0},
		{PathID: 52, NFs: []string{"classifier", "fw", "vgw", "router"}, Weight: 0.05, ExitPipeline: 0},
		{PathID: 53, NFs: []string{"classifier", "lb", "router"}, Weight: 0.05, ExitPipeline: 1},
		{PathID: 54, NFs: []string{"classifier", "nat", "router"}, Weight: 0.05, ExitPipeline: 0},
		{PathID: 55, NFs: []string{"classifier", "fw", "nat", "vgw", "lb", "router"}, Weight: 0.05, ExitPipeline: 0},
	}
	movable := []string{"fw", "vgw", "lb", "router", "nat"}
	steps, freshEvery := 200, 1
	if raceEnabled || testing.Short() {
		freshEvery = 8
	}
	accepted := map[string]int{}
	for i := 0; i < steps; i++ {
		// Draw the step: the target list, and how each deployment gets
		// there.
		live := d.Config.Chains
		target := slices.Clone(live)
		deployed := func(id uint16) bool {
			return slices.ContainsFunc(live, func(c route.Chain) bool { return c.PathID == id })
		}
		var kind string
		var viaOps func() error                    // d: the list-edit entry points
		refuses := false                           // ...which refuse some edits themselves
		move := func(u Update) Update { return u } // the settings a move changes
		switch roll := rng.Intn(10); {
		case roll < 3:
			kind = "add"
			c := pool[rng.Intn(len(pool))]
			target, refuses = append(target, c), deployed(c.PathID)
			viaOps = func() error { return d.AddChain(c) }
		case roll < 6:
			kind = "remove" // never a §5 chain: the probes ride them
			id := pool[rng.Intn(len(pool))].PathID
			target, refuses = slices.DeleteFunc(target, func(c route.Chain) bool { return c.PathID == id }), !deployed(id)
			viaOps = func() error { return d.RemoveChain(id) }
		case roll < 8:
			kind = "re-weight"
			target[rng.Intn(len(target))].Weight = float64(1+rng.Intn(9)) / 10
		default:
			kind = "move"
			name := movable[rng.Intn(len(movable))]
			pl := asic.PipeletID{Pipeline: rng.Intn(d.Config.Prof.Pipelines), Dir: asic.Direction(rng.Intn(2))}
			move = func(u Update) Update {
				u.Pin, u.Optimizer = map[string]asic.PipeletID{name: pl}, OptGreedy
				return u
			}
		}
		label := fmt.Sprintf("step %d (%s)", i, kind)
		if refuses {
			// A duplicate ID, an unknown chain: refused before any update
			// is staged, with the list edit's own message.
			if err := viaOps(); err == nil || !strings.Contains(err.Error(), "deployed") {
				t.Fatalf("%s: list edit said %v", label, err)
			}
			continue
		}
		ud := move(d.keep(target))
		if viaOps == nil {
			viaOps = func() error { return d.Apply(ud) }
		}

		// (b) the dry run, then (c) the three faults, then the real thing.
		prior := stateOf(t, d)
		res, planned, planErr := d.Plan(ud)
		if planErr == nil {
			writes := len(planned) + len(res.ChangedFuncs)
			drv := d.Driver
			for _, f := range []struct {
				want string
				seam bool
				faultyApplier
			}{
				{"switch untouched: write rejected", false, faultyApplier{failAt: 1 + rng.Intn(max(writes, 1))}},
				{"switch untouched: ctl: no open", false, faultyApplier{abortAfter: writes}},
				{"rolled back to prior programs", true, faultyApplier{}},
			} {
				if writes == 0 && !f.seam {
					continue // nothing is staged: the fault has no write to hit
				}
				if f.seam {
					d.Controller.VerifyCommit = func() error { return errors.New("post-commit check failed") }
				}
				f.ctrl = d.Controller
				d.Driver = &fault.Driver{Applier: &f.faultyApplier, MaxAttempts: 1}
				err := viaOps()
				d.Driver, d.Controller.VerifyCommit = drv, nil
				if err == nil || !strings.Contains(err.Error(), f.want) {
					t.Fatalf("%s: fault %q: got %v", label, f.want, err)
				}
				if after := stateOf(t, d); !reflect.DeepEqual(prior, after) {
					t.Fatalf("%s: fault %q moved the deployment:\nbefore %+v\nafter  %+v", label, f.want, prior, after)
				}
			}
		}
		errD := viaOps()
		if (planErr == nil) != (errD == nil) {
			t.Fatalf("%s: dry run said %v, apply said %v", label, planErr, errD)
		}
		if errD == nil {
			if len(planned) != len(d.LastDelta) || len(res.ChangedFuncs) != len(d.LastReloaded) {
				t.Errorf("%s: dry run planned %d entries / %d reloads, apply pushed %d / %d",
					label, len(planned), len(res.ChangedFuncs), len(d.LastDelta), len(d.LastReloaded))
			}
			for j, st := range d.LastBuild.Stages {
				if p := res.Info.Stages[j]; p.Name != st.Name || p.CacheHit != st.CacheHit || p.Hash != st.Hash {
					t.Errorf("%s: stage %s: dry run %v %s, apply %v %s", label, st.Name, p.CacheHit, p.Hash, st.CacheHit, st.Hash)
				}
			}
			accepted[kind]++
		} else if after := stateOf(t, d); !reflect.DeepEqual(prior, after) {
			t.Fatalf("%s: refused update (%v) moved the deployment", label, errD)
		}

		// (a) the same step through Reconfigure(list), and from scratch.
		var errR error
		if kind == "move" {
			errR = rec.Apply(move(rec.keep(target)))
		} else {
			errR = rec.Reconfigure(target)
		}
		if (errD == nil) != (errR == nil) {
			t.Fatalf("%s: first deployment said %v, second said %v", label, errD, errR)
		}
		sd, sr := stateOf(t, d), stateOf(t, rec)
		sd.Cache, sr.Cache = nil, nil
		if !reflect.DeepEqual(sd, sr) {
			t.Fatalf("%s: list edits and Reconfigure(list) diverged:\n%+v\n%+v", label, sd, sr)
		}
		if i%freshEvery == 0 {
			fresh := assertEquivalentToFresh(t, d, label)
			if got := probeOutputs(t, fresh); !reflect.DeepEqual(got, sd.Probes) {
				t.Fatalf("%s: fresh deploy forwards differently:\n%v\n%v", label, got, sd.Probes)
			}
		}
	}
	t.Logf("accepted: %v", accepted)
	for _, kind := range []string{"add", "remove", "re-weight", "move"} {
		if accepted[kind] < 10 {
			t.Errorf("walk accepted only %d %s steps: %v", accepted[kind], kind, accepted)
		}
	}
}

// TestConfigFileEquivalence runs the same invariant over the shipped
// deployment document.
func TestConfigFileEquivalence(t *testing.T) {
	// configs/edgecloud.json is the scenario in file form; edgeConfig()
	// already covers it structurally, so this exercises the optimized
	// placement path instead: deploy without a pinned placement, then
	// churn.
	cfg := edgeConfig()
	cfg.Placement = nil
	cfg.Optimizer = OptGreedy
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	extra := route.Chain{
		PathID: 60, NFs: []string{"classifier", "vgw", "router"}, Weight: 0.1, ExitPipeline: 0,
	}
	if err := d.AddChain(extra); err != nil {
		t.Fatal(err)
	}
	assertEquivalentToFresh(t, d, "optimized placement add")
	if err := d.RemoveChain(60); err != nil {
		t.Fatal(err)
	}
	assertEquivalentToFresh(t, d, "optimized placement remove")
}

// TestHotSwapHammer floods a stable path with concurrent traffic while
// the control plane repeatedly hot-adds and removes an unrelated
// chain. Every packet must observe a coherent old-or-new snapshot:
// zero drops, every packet emitted. Run with -race.
func TestHotSwapHammer(t *testing.T) {
	d, err := Deploy(edgeConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Warm the stable basic path (classifier → router → upstream).
	tr, err := d.Inject(scenario.PortClient, scenario.InternetBound())
	if err != nil || tr.Dropped {
		t.Fatalf("warm-up failed: %v %+v", err, tr)
	}

	sw := d.Switch
	var injected, dropped, emitted atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	workers := 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				q, err := sw.InjectQuiet(scenario.PortClient, scenario.InternetBound())
				injected.Add(1)
				if err != nil || q.Dropped {
					dropped.Add(1)
				}
				emitted.Add(int64(q.Emitted))
			}
		}()
	}

	// On a single-CPU box the churn loop below can finish before the
	// scheduler ever runs a worker; wait for the first injection so the
	// swaps genuinely contend with traffic.
	for injected.Load() == 0 {
		runtime.Gosched()
	}

	extra := route.Chain{
		PathID: 99, NFs: []string{"classifier", "vgw", "router"}, Weight: 0.05, ExitPipeline: 0,
	}
	// Each churn is two full control-plane swaps contending with the
	// traffic workers; keep the count modest so the suite stays fast.
	churns := 6
	if raceEnabled || testing.Short() {
		churns = 4
	}
	for i := 0; i < churns; i++ {
		if err := d.AddChain(extra); err != nil {
			t.Fatalf("churn %d add: %v", i, err)
		}
		if err := d.RemoveChain(extra.PathID); err != nil {
			t.Fatalf("churn %d remove: %v", i, err)
		}
	}
	close(done)
	wg.Wait()

	if n := injected.Load(); n == 0 {
		t.Fatal("no packets injected during churn")
	}
	if n := dropped.Load(); n != 0 {
		t.Errorf("%d of %d packets dropped during hot swaps", n, injected.Load())
	}
	if emitted.Load() < injected.Load() {
		t.Errorf("emitted %d < injected %d: packets lost in flight",
			emitted.Load(), injected.Load())
	}
	if got := d.Control.Swaps(); got != uint64(2*churns) {
		t.Errorf("rebuild telemetry counted %d swaps, want %d", got, 2*churns)
	}
}
