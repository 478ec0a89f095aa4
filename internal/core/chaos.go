package core

import (
	"cmp"
	"fmt"
	"strings"
	"time"

	"dejavu/internal/asic"
	"dejavu/internal/cluster"
	"dejavu/internal/ctl"
	"dejavu/internal/fault"
	"dejavu/internal/lint"
	"dejavu/internal/nf"
	"dejavu/internal/packet"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
	"dejavu/internal/telemetry"
)

// This file is the chaos soak: one Soak scenario, replayed by RunSoak
// against one target — a single switch or a multi-switch fabric
// (fabricchaos.go) — with the same protocol every tick: fire the
// tick's faults, run one reconcile round, probe every chain end to end,
// check the target's §7 operational invariants. The same Soak always
// reproduces the identical event sequence, round decisions and log.

// Soak is one chaos soak scenario: the target, the fault timeline
// replayed against it and the probes sent every tick.
type Soak struct {
	Seed  int64 // seeds the injector's byte flips and packet losses
	Ticks int   // the timeline length; zero means 40
	// Switches 0 soaks one switch deployed from Config; n >= 2 soaks
	// Config's chains and NFs on cluster.NewSpineFabric(Config.Prof, n),
	// as an intent's fabric section does.
	Switches    int
	Config      Config
	StageDemand map[string]int   // a fabric's per-NF stage demand (the intent's stage_demand)
	Schedule    fault.Schedule   // replayed as given; a fault the target cannot apply is refused
	Probes      []scenario.Probe // sent every tick after the round; on a fabric at switch 0
	OfferedGbps float64          // one switch's capacity check input; zero disables the check
	// Refresh, when non-nil, is a control-plane write one switch re-applies
	// every tick, so table-write faults exercise the driver's retries.
	Refresh   *ctl.TableWrite
	Telemetry *telemetry.Control // when set, a fabric deployment records its rounds here
}

// SoakResult is the outcome of one chaos soak, over one switch or a
// fabric: the `dejavu chaos -json` document (docs/CLI.md). A field its
// target does not fill reads 0; a fabric's document omits the
// single-switch-only punted, repoints and telemetry.
type SoakResult struct {
	Seed     int64 `json:"seed"`
	Ticks    int   `json:"ticks"`
	Switches int   `json:"switches"`
	Events   int   `json:"events"` // fault events fired
	// Probe accounting: every probe is delivered at its chain's exit,
	// dropped with a recorded reason, punted, exempted by an open
	// corruption window on its chain's route, or aimed at a reported
	// blackhole — anything else is a violation.
	Probes           int `json:"probes"`
	Delivered        int `json:"delivered"`
	Dropped          int `json:"dropped"`
	Punted           int `json:"punted,omitempty"`
	CorruptExempt    int `json:"corrupt_exempt"`
	BlackholedProbes int `json:"blackholed_probes"`
	// Healing: reconcile rounds, the program transactions they committed
	// (one per reprogrammed switch), chains re-pointed to a healthy exit
	// port (one switch) or moved onto a new route (a fabric), and the
	// rounds that committed — each a convergence, whose time to repair
	// runs from the first failed round before it.
	Reconciles        int                `json:"reconciles"`
	Replacements      int                `json:"replacements"`
	Repoints          int                `json:"repoints,omitempty"`
	ChainReplacements int                `json:"chain_replacements"`
	Convergences      int                `json:"convergences"`
	MaxConvergeTicks  int                `json:"max_converge_ticks"`
	WireLosses        int                `json:"wire_losses"` // packets the injector destroyed on wires
	AliveAtEnd        int                `json:"alive_at_end"`
	Driver            fault.DriverStats  `json:"driver"` // every switch's driver: heal commits and the Refresh stream
	Routes            []ChainRouteRecord `json:"routes"` // a fabric's final installed per-chain placement
	// Findings accumulates the rounds' degradation findings and, on one
	// switch, the recirculation overloads the schedule fired.
	Findings   *lint.Report                `json:"degradation"`
	Violations []string                    `json:"violations"` // invariant breaches; empty means the run passed
	Log        []string                    `json:"log,omitempty"`
	Telemetry  *telemetry.DatapathSnapshot `json:"telemetry,omitempty"` // one switch's datapath counters after the last tick

	tick int // the tick in progress, which stamps every log line and violation
}

// ChainRouteRecord is one chain's installed placement in the
// `dejavu chaos -switches N -json` document: the switch sequence its traffic
// follows and the NFs executed at each position (empty for transit).
type ChainRouteRecord struct {
	Chain     uint16     `json:"chain"`
	Path      []int      `json:"path"`
	Segments  [][]string `json:"segments"`
	CrossHops int        `json:"cross_hops"`
}

// OK reports whether the run held every invariant.
func (r *SoakResult) OK() bool { return len(r.Violations) == 0 }

// Summary renders a one-paragraph result overview.
func (r *SoakResult) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "chaos seed %d: %d switch(es), %d ticks, %d fault events\n", r.Seed, r.Switches, r.Ticks, r.Events)
	fmt.Fprintf(&sb, "probes: %d total, %d delivered, %d dropped (attributed), %d punted, %d corrupt-exempt, %d blackholed\n",
		r.Probes, r.Delivered, r.Dropped, r.Punted, r.CorruptExempt, r.BlackholedProbes)
	fmt.Fprintf(&sb, "healing: %d reconcile rounds, %d program transactions, %d chain re-points, %d chain re-places, %d reconvergences (max %d tick(s))\n",
		r.Reconciles, r.Replacements, r.Repoints, r.ChainReplacements, r.Convergences, r.MaxConvergeTicks)
	fmt.Fprintf(&sb, "wire losses: %d; driver: %d writes, %d retries, %d failures; alive at end: %d/%d\n",
		r.WireLosses, r.Driver.Writes, r.Driver.Retries, r.Driver.Failures, r.AliveAtEnd, r.Switches)
	fmt.Fprintf(&sb, "degradation findings: %d (%d error, %d warn)\n",
		len(r.Findings.Findings), r.Findings.Errors(), r.Findings.Warnings())
	if t := r.Telemetry; t != nil && t.Completed() > 0 {
		fmt.Fprintf(&sb, "telemetry: %d packets (%d delivered, %d dropped, %d to CPU), p99 latency %d ns, mean recircs %.2f\n",
			t.Completed(), t.Delivered, t.Dropped, t.ToCPU, t.Latency.Quantile(0.99), t.Recirculation.Mean())
	}
	if r.OK() {
		sb.WriteString("invariants: all held\n")
	} else {
		fmt.Fprintf(&sb, "invariants: %d VIOLATION(S)\n  %s\n", len(r.Violations), strings.Join(r.Violations, "\n  "))
	}
	return sb.String()
}

// soakTarget is what one target supplies to the tick loop: the faults
// it refuses, how it applies a fired fault to its own topology, its
// round and the program transactions it committed, its probe verdict,
// its invariants (told whether the round failed), its final readings.
type soakTarget interface {
	refuse(ev fault.Event) error
	apply(r *SoakResult, ev fault.Event) error
	round(r *SoakResult) (commits int, err error)
	probe(r *SoakResult, pr scenario.Probe)
	check(r *SoakResult, roundFailed bool)
	finish(r *SoakResult)
}

// soakTicks refuses a fabric of fewer than two switches and a negative
// timeline, and resolves zero ticks to 40.
func soakTicks(ticks, switches int) (int, error) {
	if switches != 0 && switches < 2 {
		return 0, fmt.Errorf("core: fabric chaos: switches is %d, need at least 2", switches)
	}
	if ticks < 0 {
		return 0, fmt.Errorf("core: chaos: ticks is %d, must not be negative", ticks)
	}
	return cmp.Or(ticks, 40), nil
}

// RunSoak builds s's target, its faults served by one injector over
// s.Schedule, and replays every tick against it. Fully deterministic:
// the same s produces the identical result and log.
func RunSoak(s Soak) (*SoakResult, error) {
	ticks, err := soakTicks(s.Ticks, s.Switches)
	if err != nil {
		return nil, err
	}
	inj, newTarget := fault.NewInjector(s.Seed, s.Schedule), newSwitchTarget
	if s.Switches != 0 {
		newTarget = newFabricTarget
	}
	t, err := newTarget(s, inj)
	if err != nil {
		return nil, err
	}
	for _, ev := range s.Schedule {
		if err := t.refuse(ev); err != nil {
			return nil, fmt.Errorf("core: chaos: %s: %w", ev, err)
		}
	}
	r := &SoakResult{Seed: s.Seed, Ticks: ticks, Switches: max(s.Switches, 1), Findings: lint.NewReport()}
	r.run(t, inj, s.Probes)
	t.finish(r)
	return r, nil
}

func (r *SoakResult) logf(format string, args ...any) {
	r.Log = append(r.Log, fmt.Sprintf("t%03d ", r.tick)+fmt.Sprintf(format, args...))
}

func (r *SoakResult) violate(format string, args ...any) {
	v := fmt.Sprintf("t%03d ", r.tick) + fmt.Sprintf(format, args...)
	r.Violations = append(r.Violations, v)
	r.Log = append(r.Log, v+" VIOLATION")
}

// run replays every tick against t: the injector's faults, each
// recorded (its line carries its own tick) and applied by t, one
// reconcile round, the probes, the invariants. A failed round is
// logged, leaves the tick unconverged and suppresses its probes; the
// next tick's round retries it.
func (r *SoakResult) run(t soakTarget, inj *fault.Injector, probes []scenario.Probe) {
	degradedSince := 0 // first tick of the current failed stretch
	for r.tick = 1; r.tick <= r.Ticks; r.tick++ {
		for _, ev := range inj.Advance() {
			r.Events++
			r.Log = append(r.Log, ev.String())
			if err := t.apply(r, ev); err != nil {
				r.violate("%s not applied: %v", ev.Kind, err)
			}
		}
		commits, err := t.round(r)
		r.Reconciles++
		if err != nil {
			r.logf("round failed: %v", err)
			degradedSince = cmp.Or(degradedSince, r.tick)
		} else {
			if commits > 0 {
				ticks := r.tick - cmp.Or(degradedSince, r.tick) + 1
				r.Replacements += commits
				r.Convergences++
				r.MaxConvergeTicks = max(r.MaxConvergeTicks, ticks)
				r.logf("converged in %d tick(s)", ticks)
			}
			degradedSince = 0
		}
		for _, pr := range probes {
			if err != nil {
				r.logf("probe %s: suppressed, round failed", pr.Name)
			} else {
				t.probe(r, pr)
			}
		}
		t.check(r, err != nil)
	}
	r.WireLosses = len(inj.Losses())
}

// flakyDriver is a switch's retrying driver over a table-write fault
// injector; it never sleeps, so a simulated run never blocks.
func flakyDriver(ctrl *ctl.Controller, inj *fault.Injector) *fault.Driver {
	return &fault.Driver{Applier: fault.NewFlakyApplier(ctrl, inj), Sleep: func(time.Duration) {}}
}

// newSwitchTarget deploys s.Config with its datapath counters on (the
// probes are the traffic) and hands the switch's faults to inj: its
// fault hook and its driver, so heal commits and the Refresh stream
// share one flaky driver and its statistics.
func newSwitchTarget(s Soak, inj *fault.Injector) (soakTarget, error) {
	s.Config.Telemetry = true
	d, err := Deploy(s.Config)
	if err != nil {
		return nil, err
	}
	d.Switch.SetFaultHook(inj)
	d.Driver = flakyDriver(d.Controller, inj)
	return &switchTarget{d: d, s: s}, nil
}

// switchTarget is one switch under the soak.
type switchTarget struct {
	d *Deployment
	s Soak
}

// refuse names a fault one switch cannot apply, so the soak never
// counts a fault that did nothing.
func (t *switchTarget) refuse(ev fault.Event) error {
	switch prof := &t.d.Config.Prof; {
	case ev.Kind.Fabric() || ev.Switch != 0:
		return fmt.Errorf("not a fault of switch 0")
	case ev.Kind != fault.TableWriteFail && !prof.ValidPort(ev.Port):
		return fmt.Errorf("the switch has no port %d", ev.Port)
	case (ev.Kind == fault.PortDown || ev.Kind == fault.PortUp) && (asic.IsRecircPort(ev.Port) || ev.Port == asic.PortCPU):
		return fmt.Errorf("port %d has no admin state", ev.Port)
	}
	return nil
}

// apply applies a port flap to the switch. A recirculation overload
// leaves no state to reconcile, so it is reported where it is seen;
// wire and table-write faults are absorbed by the parser and the
// retrying driver.
func (t *switchTarget) apply(r *SoakResult, ev fault.Event) error {
	switch ev.Kind {
	case fault.PortDown, fault.PortUp:
		return t.d.Switch.SetPortAdminState(ev.Port, ev.Kind == fault.PortUp)
	case fault.RecircOverload:
		r.Findings.Add(lint.Finding{
			Rule: RuleRCCapacity, Severity: lint.SevWarn,
			Where:   fmt.Sprintf("port %d", ev.Port),
			Message: fmt.Sprintf("recirculation queue overloaded for %d tick(s); transient loss expected", ev.Dur()),
			Fix:     "add loopback ports or reduce weighted recirculations",
		})
	}
	return nil
}

// round runs one Reconcile round, then re-applies the Refresh write. A
// failed round adopts nothing, so the next one reports its findings
// and actions again; a converged round does not record the standing
// degradation again either.
func (t *switchTarget) round(r *SoakResult) (commits int, err error) {
	installed := t.d.installed.Res
	rep, err := t.d.Reconcile(t.s.OfferedGbps)
	if err == nil {
		for _, a := range rep.Actions {
			r.logf("heal: %s", a)
		}
		r.Repoints += len(rep.Repointed)
		if !rep.Converged {
			for _, f := range rep.Degradation.Findings {
				r.Findings.Add(f)
			}
		}
	}
	if t.s.Refresh != nil {
		if err := t.d.Driver.Apply(*t.s.Refresh); err != nil {
			r.violate("control-plane refresh not recovered: %v", err)
		}
	}
	if t.d.installed.Res != installed {
		commits = 1
	}
	return commits, err
}

// probe injects one probe, suppressed while its inject port is down:
// it passes Verify at the chain's installed exit (its static exit, if
// it has one), is dropped with a recorded reason, or punted.
func (t *switchTarget) probe(r *SoakResult, pr scenario.Probe) {
	if !t.d.Switch.PortIsUp(pr.Port) {
		r.logf("probe %s: suppressed, inject port %d down", pr.Name, pr.Port)
		return
	}
	r.Probes++
	tr, err := t.d.Inject(pr.Port, pr.Packet())
	pr.Exit = cmp.Or(staticExitOf(t.d.installed.Res.Composer.Chains, pr.PathID), pr.Exit)
	switch {
	case err != nil:
		r.violate("probe %s: inject failed: %v", pr.Name, err)
	case len(tr.Out) > 0:
		if err := pr.Verify(tr.Out); err != nil {
			r.violate("%v", err)
			return
		}
		r.Delivered++
		r.logf("probe %s: delivered port %d", pr.Name, tr.Out[0].Port)
	case tr.Dropped && tr.DropReason != "":
		r.Dropped++
		r.logf("probe %s: dropped (%s)", pr.Name, tr.DropReason)
	case len(tr.CPU) > 0:
		r.Punted++
		r.logf("probe %s: punted to CPU", pr.Name)
	default:
		r.violate("probe %s: silently blackholed", pr.Name)
	}
}

func (t *switchTarget) finish(r *SoakResult) {
	snap := t.d.Datapath.Snapshot()
	r.AliveAtEnd, r.Driver, r.Telemetry = 1, t.d.Driver.Stats(), &snap
}

// check audits the deployment after a reconcile round: the capacity
// bookkeeping and the loopback rotation must match the switch's actual
// port state, and the running programs must stay lint-clean.
func (t *switchTarget) check(r *SoakResult, _ bool) {
	// Capacity bookkeeping vs switch port and loopback state.
	d, violate := t.d, r.violate
	prof, up := d.Config.Prof, 0
	for p := 0; p < prof.TotalPorts(); p++ {
		if d.Switch.PortIsUp(asic.PortID(p)) {
			up++
		}
	}
	if d.Capacity.TotalPorts != up {
		violate("capacity: TotalPorts=%d, switch has %d live ports", d.Capacity.TotalPorts, up)
	}
	live := 0
	for _, p := range d.Config.LoopbackPorts {
		switch {
		case !d.Switch.PortIsUp(p):
			if d.Switch.LoopbackModeOf(p) != asic.LoopbackOff {
				violate("capacity: dead port %d still in loopback mode", p)
			}
		case d.Switch.LoopbackModeOf(p) == asic.LoopbackOff:
			violate("capacity: port %d budgeted as loopback but not in loopback mode", p)
			live++
		default:
			live++
		}
	}
	if d.Capacity.LoopbackPorts != live {
		violate("capacity: LoopbackPorts=%d, %d declared loopback ports are up", d.Capacity.LoopbackPorts, live)
	}
	// The running programs must stay statically clean after every repair.
	if rep := lint.AnalyzeDeployment(d.installed.Res.Dep, d.Config.Enter); rep.HasErrors() {
		for _, f := range rep.BySeverity(lint.SevError) {
			violate("lint: %s", f)
		}
	}
}

// EdgeSoak returns the §5 edge-cloud soak (tests, `dejavu chaos`, dvexp)
// on one switch (switches 0) or n, its schedule generated from seed.
// One switch adds chain 40 (classifier→fw), whose static exit 30 the
// round re-points to spare port 31 when it dies, loopback ports 16..29
// and a probe; its faults flap port 30 and three loopback ports, corrupt
// exit wires, overload recirculation and fail the LPM writes Refresh
// repeats. A fabric gives each NF 8 stages (+2 framework), so the chains
// need two 48-stage switches, learns the LB session up front, and takes
// fabric faults (entry switch protected), then pipelet-program write
// failures.
func EdgeSoak(seed int64, ticks, switches int) (Soak, error) {
	ticks, err := soakTicks(ticks, switches)
	if err != nil {
		return Soak{}, err
	}
	sc, err := scenario.New()
	if err != nil {
		return Soak{}, err
	}
	s := Soak{
		Seed: seed, Ticks: ticks, Switches: switches, Probes: scenario.Probes(),
		Config: Config{Prof: sc.Prof, Chains: sc.Chains, NFs: sc.NFs, Enter: 0, Placement: sc.Placement},
	}
	if switches == 0 {
		const chaosPath uint16 = 40
		s.Config.Chains = append(s.Config.Chains, route.Chain{
			PathID: chaosPath, NFs: []string{"classifier", "fw"},
			Weight: 0.2, ExitPipeline: 1, StaticExitPort: 30,
		})
		// Steer a dedicated prefix onto the chaos chain.
		if err := sc.Classifier.AddRule(nf.ClassRule{
			DstIP: packet.IP4{198, 18, 0, 0}, DstMask: packet.IP4{255, 255, 0, 0},
			Priority: 15, Path: chaosPath, InitialIndex: 2, Tenant: scenario.TenantID,
		}); err != nil {
			return Soak{}, err
		}
		for p := asic.PortID(16); p < 30; p++ {
			s.Config.LoopbackPorts = append(s.Config.LoopbackPorts, p)
		}
		s.Probes = append(s.Probes, scenario.Probe{
			Name: "static-exit", PathID: chaosPath, Port: scenario.PortClient, Exit: 30,
			Packet: func() *packet.Parsed {
				return packet.NewUDP(packet.UDPOpts{
					SrcMAC: scenario.ClientMAC, DstMAC: scenario.GatewayMAC, Src: scenario.ClientIP,
					Dst: packet.IP4{198, 18, 0, 5}, SrcPort: 33003, DstPort: 7,
				})
			},
		})
		s.Schedule = fault.RandomSchedule(seed, fault.ScheduleOpts{
			Ticks: ticks,
			// Never the probe inject port (2) or the dynamic exits (1, 8, 9).
			FlapPorts:   []asic.PortID{30, 20, 24, 28},
			WirePorts:   []asic.PortID{1, 8, 30},
			RecircPorts: []asic.PortID{16, 17, 18, 19},
			Tables:      []fault.TableRef{{NF: "router", Table: "ipv4_lpm"}},
		})
		s.OfferedGbps = 1800
		s.Refresh = &ctl.TableWrite{
			NF: "router", Table: "ipv4_lpm",
			Args: []any{packet.IP4{0, 0, 0, 0}, 0,
				nf.NextHop{Port: uint16(scenario.PortUpstream), DstMAC: scenario.UpstreamMAC, SrcMAC: scenario.GatewayMAC}},
		}
		return s, nil
	}
	s.StageDemand = map[string]int{"classifier": 8, "fw": 8, "vgw": 8, "lb": 8, "router": 8}
	ftuple, _ := scenario.ClientTCP(443).FiveTuple()
	backend, err := sc.LB.SelectBackend(scenario.VIP, ftuple.Hash())
	if err == nil {
		err = sc.LB.InstallSession(ftuple.Hash(), backend)
	}
	if err != nil {
		return Soak{}, err
	}
	f, err := cluster.NewSpineFabric(sc.Prof, switches)
	if err != nil {
		return Soak{}, err
	}
	var links []fault.FabricLink
	for _, w := range f.Wires() {
		links = append(links, fault.FabricLink{Sw: w.FromSw, Port: w.FromPort})
	}
	s.Schedule = append(fault.RandomFabricSchedule(seed, fault.FabricScheduleOpts{
		Ticks: ticks, Switches: switches, ProtectedSwitches: []int{0}, Links: links,
	}), fault.RandomSchedule(seed, fault.ScheduleOpts{
		Ticks:         ticks,
		Tables:        []fault.TableRef{{NF: ctl.FrameworkNF, Table: ctl.PipeletProgramTable}},
		EventsPerTick: 0.3,
	})...)
	return s, nil
}
