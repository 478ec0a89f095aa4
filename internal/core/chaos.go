package core

import (
	"fmt"
	"strings"
	"time"

	"dejavu/internal/asic"
	"dejavu/internal/ctl"
	"dejavu/internal/fault"
	"dejavu/internal/lint"
	"dejavu/internal/nf"
	"dejavu/internal/packet"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
	"dejavu/internal/telemetry"
)

// This file is the chaos harness: it replays a seeded fault schedule
// (internal/fault) against a live deployment, runs one Reconcile round
// after every tick, probes every chain end-to-end, and checks the §7
// operational invariants — no chain silently blackholed, capacity
// bookkeeping consistent with the switch's port state, and a
// lint-clean deployment after every repair. The same seed always
// reproduces the identical event sequence, round decisions and log.

// ChaosOpts parameterizes a chaos run.
type ChaosOpts struct {
	Seed int64
	// Ticks is the timeline length; zero means 40.
	Ticks int
	// OfferedGbps feeds the Reconcile round's capacity check; zero
	// disables it.
	OfferedGbps float64
	// Schedule overrides the generated fault schedule when non-nil.
	Schedule fault.Schedule
	// ScheduleOpts parameterizes schedule generation when Schedule is
	// nil.
	ScheduleOpts fault.ScheduleOpts
	// Probes are injected each tick, after reconciliation.
	Probes []scenario.Probe
	// Refresh, when non-nil, is a control-plane write re-applied every
	// tick through the retrying driver, so scheduled table-write faults
	// exercise the retry/idempotency path.
	Refresh *ctl.TableWrite
}

// ChaosResult is the outcome of one chaos run. The JSON shape is the
// `dejavu chaos -json` document (docs/CLI.md).
type ChaosResult struct {
	Seed  int64 `json:"seed"`
	Ticks int   `json:"ticks"`
	// Events is the number of fault events fired.
	Events int `json:"events"`
	// Probe accounting: every probe is delivered, dropped with a
	// recorded reason, or punted — anything else is a violation.
	Probes    int `json:"probes"`
	Delivered int `json:"delivered"`
	Dropped   int `json:"dropped"`
	Punted    int `json:"punted"`
	// Repoints counts chains re-pointed to a healthy exit port.
	Repoints int `json:"repoints"`
	// Replacements counts capacity-driven placement re-optimizations.
	Replacements int `json:"replacements"`
	// WireLosses counts packets the injector destroyed on the wire.
	WireLosses int `json:"wire_losses"`
	// Driver reports the control-plane retry statistics of the Refresh
	// write stream.
	Driver fault.DriverStats `json:"driver"`
	// Findings accumulates the degradation report of every round that
	// changed something and the recirculation overloads the schedule
	// fired.
	Findings *lint.Report `json:"degradation"`
	// Violations lists invariant breaches; empty means the run passed.
	Violations []string `json:"violations"`
	// Log is the deterministic transcript of the run.
	Log []string `json:"log,omitempty"`
	// Telemetry is the datapath counter snapshot taken after the last
	// tick (chaos runs always count; the probes are the traffic).
	Telemetry telemetry.DatapathSnapshot `json:"telemetry"`
}

// OK reports whether the run held every invariant.
func (r *ChaosResult) OK() bool { return len(r.Violations) == 0 }

// Summary renders a one-paragraph result overview.
func (r *ChaosResult) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "chaos seed %d: %d ticks, %d fault events\n", r.Seed, r.Ticks, r.Events)
	fmt.Fprintf(&sb, "probes: %d total, %d delivered, %d dropped (attributed), %d punted\n",
		r.Probes, r.Delivered, r.Dropped, r.Punted)
	fmt.Fprintf(&sb, "healing: %d chain re-points, %d placement re-optimizations\n",
		r.Repoints, r.Replacements)
	fmt.Fprintf(&sb, "wire losses: %d; driver: %d writes, %d retries, %d failures\n",
		r.WireLosses, r.Driver.Writes, r.Driver.Retries, r.Driver.Failures)
	fmt.Fprintf(&sb, "degradation findings: %d (%d error, %d warn)\n",
		len(r.Findings.Findings), r.Findings.Errors(), r.Findings.Warnings())
	t := r.Telemetry
	if done := t.Completed(); done > 0 {
		fmt.Fprintf(&sb, "telemetry: %d packets (%d delivered, %d dropped, %d to CPU), p99 latency %d ns, mean recircs %.2f\n",
			done, t.Delivered, t.Dropped, t.ToCPU, t.Latency.Quantile(0.99), t.Recirculation.Mean())
	}
	if r.OK() {
		sb.WriteString("invariants: all held\n")
	} else {
		fmt.Fprintf(&sb, "invariants: %d VIOLATION(S)\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&sb, "  %s\n", v)
		}
	}
	return sb.String()
}

// RunChaos deploys cfg, replays a seeded fault schedule against it
// tick by tick — reconciling, probing and checking invariants after
// every tick — and returns the accumulated result. It is fully
// deterministic: the same cfg and opts produce the identical result
// and log.
func RunChaos(cfg Config, opts ChaosOpts) (*ChaosResult, error) {
	cfg.Telemetry = true // chaos runs always count; the probes are the traffic
	d, err := Deploy(cfg)
	if err != nil {
		return nil, err
	}
	ticks := opts.Ticks
	if ticks <= 0 {
		ticks = 40
	}
	sched := opts.Schedule
	if sched == nil {
		so := opts.ScheduleOpts
		if so.Ticks == 0 {
			so.Ticks = ticks
		}
		sched = fault.RandomSchedule(opts.Seed, so)
	}
	inj := fault.NewInjector(opts.Seed, sched)
	d.Switch.SetFaultHook(inj)

	res := &ChaosResult{Seed: opts.Seed, Ticks: ticks, Findings: lint.NewReport()}
	var driver *fault.Driver
	if opts.Refresh != nil {
		driver = fault.NewDriver(fault.NewFlakyApplier(d.Controller, inj))
		driver.Sleep = func(time.Duration) {} // never block a simulated run
	}
	logf := func(format string, args ...any) {
		res.Log = append(res.Log, fmt.Sprintf(format, args...))
	}
	violate := func(tick int, format string, args ...any) {
		v := fmt.Sprintf("t%03d ", tick) + fmt.Sprintf(format, args...)
		res.Violations = append(res.Violations, v)
		logf("%s VIOLATION", v)
	}

	for tick := 1; tick <= ticks; tick++ {
		// 1. Fire the tick's faults, then run one reconcile round over
		// the switch's port state. A recirculation overload leaves no
		// state to reconcile, so it is reported where it is seen; wire
		// and table-write faults are absorbed by the parser and the
		// retrying driver.
		for _, ev := range inj.Advance(d.Switch) {
			res.Events++
			logf("%s", ev)
			if ev.Kind == fault.RecircOverload {
				res.Findings.Add(lint.Finding{
					Rule: RuleRCCapacity, Severity: lint.SevWarn,
					Where:   fmt.Sprintf("port %d", ev.Port),
					Message: fmt.Sprintf("recirculation queue overloaded for %d tick(s); transient loss expected", ev.Dur()),
					Fix:     "add loopback ports or reduce weighted recirculations",
				})
			}
		}
		rep, err := d.Reconcile(opts.OfferedGbps)
		if err != nil {
			return res, fmt.Errorf("core: chaos tick %d: %w", tick, err)
		}
		for _, a := range rep.Actions {
			logf("t%03d heal: %s", tick, a)
		}
		res.Repoints += len(rep.Repointed)
		if rep.Replaced {
			res.Replacements++
		}
		if !rep.Converged { // a converged round re-reports the standing degradation
			for _, f := range rep.Degradation.Findings {
				res.Findings.Add(f)
			}
		}

		// 2. Exercise the control plane through the retrying driver.
		if driver != nil {
			if err := driver.Apply(*opts.Refresh); err != nil {
				violate(tick, "control-plane refresh not recovered: %v", err)
			}
		}

		// 3. Probe every chain end-to-end.
		for _, pr := range opts.Probes {
			if !d.Switch.PortIsUp(pr.Port) {
				logf("t%03d probe %s: suppressed, inject port %d down", tick, pr.Name, pr.Port)
				continue
			}
			res.Probes++
			tr, err := d.Inject(pr.Port, pr.Packet())
			if err != nil {
				violate(tick, "probe %s: inject failed: %v", pr.Name, err)
				continue
			}
			switch {
			case len(tr.Out) > 0:
				res.Delivered++
				logf("t%03d probe %s: delivered port %d", tick, pr.Name, tr.Out[0].Port)
				if port := staticExitOf(d.installed.Res.Composer.Chains, pr.PathID); port != 0 && tr.Out[0].Port != port {
					violate(tick, "probe %s: exited port %d, static exit is %d",
						pr.Name, tr.Out[0].Port, port)
				}
			case tr.Dropped && tr.DropReason != "":
				res.Dropped++
				logf("t%03d probe %s: dropped (%s)", tick, pr.Name, tr.DropReason)
			case len(tr.CPU) > 0:
				res.Punted++
				logf("t%03d probe %s: punted to CPU", tick, pr.Name)
			default:
				violate(tick, "probe %s: silently blackholed", pr.Name)
			}
		}

		// 4. Invariants.
		checkChaosInvariants(d, tick, violate)
	}
	res.WireLosses = len(inj.Losses())
	if driver != nil {
		res.Driver = driver.Stats()
	}
	res.Telemetry = d.Datapath.Snapshot()
	return res, nil
}

// checkChaosInvariants audits the deployment after a reconcile round:
// the capacity bookkeeping and the loopback rotation must match the
// switch's actual port state, and the running programs must stay
// lint-clean.
func checkChaosInvariants(d *Deployment, tick int, violate func(int, string, ...any)) {
	// Capacity bookkeeping vs switch port and loopback state.
	prof, up := d.Config.Prof, 0
	for p := 0; p < prof.TotalPorts(); p++ {
		if d.Switch.PortIsUp(asic.PortID(p)) {
			up++
		}
	}
	if d.Capacity.TotalPorts != up {
		violate(tick, "capacity: TotalPorts=%d, switch has %d live ports", d.Capacity.TotalPorts, up)
	}
	live := 0
	for _, p := range d.Config.LoopbackPorts {
		switch {
		case !d.Switch.PortIsUp(p):
			if d.Switch.LoopbackModeOf(p) != asic.LoopbackOff {
				violate(tick, "capacity: dead port %d still in loopback mode", p)
			}
		case d.Switch.LoopbackModeOf(p) == asic.LoopbackOff:
			violate(tick, "capacity: port %d budgeted as loopback but not in loopback mode", p)
			live++
		default:
			live++
		}
	}
	if d.Capacity.LoopbackPorts != live {
		violate(tick, "capacity: LoopbackPorts=%d, %d declared loopback ports are up", d.Capacity.LoopbackPorts, live)
	}
	for _, ports := range d.loops.ports.Load().byPipe {
		for _, p := range ports {
			if !d.Switch.PortIsUp(p) {
				violate(tick, "capacity: port %d budgeted as loopback but administratively down", p)
			}
		}
	}
	// The running programs must stay statically clean after every repair.
	if rep := lint.AnalyzeDeployment(d.installed.Res.Dep); rep.HasErrors() {
		for _, f := range rep.BySeverity(lint.SevError) {
			violate(tick, "lint: %s", f)
		}
	}
}

// EdgeChaosConfig returns the §5 edge-cloud scenario extended for
// chaos runs: a fourth chain (classifier→fw) with a static exit
// through port 30 — the direct-exit path the reconciler re-points when
// that port dies — plus loopback ports 16..29, leaving port 31 as the
// healthy spare exit. Its probes are the §5 suite plus one for the
// fourth chain.
func EdgeChaosConfig() (Config, []scenario.Probe, error) {
	s, err := scenario.New()
	if err != nil {
		return Config{}, nil, err
	}
	const chaosPath uint16 = 40
	chains := append(s.Chains, route.Chain{
		PathID: chaosPath, NFs: []string{"classifier", "fw"},
		Weight: 0.2, ExitPipeline: 1, StaticExitPort: 30,
	})
	// Steer a dedicated prefix onto the chaos chain.
	if err := s.Classifier.AddRule(nf.ClassRule{
		DstIP: packet.IP4{198, 18, 0, 0}, DstMask: packet.IP4{255, 255, 0, 0},
		Priority: 15,
		Path:     chaosPath, InitialIndex: 2, Tenant: scenario.TenantID,
	}); err != nil {
		return Config{}, nil, err
	}
	cfg := Config{
		Prof:      s.Prof,
		Chains:    chains,
		NFs:       s.NFs,
		Enter:     0,
		Placement: s.Placement,
	}
	for p := asic.PortID(16); p < 30; p++ {
		cfg.LoopbackPorts = append(cfg.LoopbackPorts, p)
	}
	probes := append(scenario.Probes(), scenario.Probe{
		Name: "static-exit", PathID: chaosPath, Port: scenario.PortClient, Exit: 30,
		Packet: func() *packet.Parsed {
			return packet.NewUDP(packet.UDPOpts{
				SrcMAC: scenario.ClientMAC, DstMAC: scenario.GatewayMAC,
				Src: scenario.ClientIP, Dst: packet.IP4{198, 18, 0, 5},
				SrcPort: 33003, DstPort: 7,
			})
		},
	})
	return cfg, probes, nil
}

// EdgeChaos runs a seeded chaos soak over the edge-cloud scenario: the
// fault schedule flaps the static exit port and three loopback ports,
// corrupts packets on the exit wires, overloads recirculation queues,
// and fails control-plane writes against the router's LPM table. This
// is the shared harness behind the chaos soak test, `dejavu chaos` and
// the dvexp chaos table.
func EdgeChaos(seed int64, ticks int) (*ChaosResult, error) {
	cfg, probes, err := EdgeChaosConfig()
	if err != nil {
		return nil, err
	}
	opts := ChaosOpts{
		Seed:        seed,
		Ticks:       ticks,
		OfferedGbps: 1800,
		ScheduleOpts: fault.ScheduleOpts{
			Ticks: ticks,
			// Flap the static exit and three loopback ports; never the
			// probe inject port (2) or the dynamic exits (1, 8, 9).
			FlapPorts:   []asic.PortID{30, 20, 24, 28},
			WirePorts:   []asic.PortID{1, 8, 30},
			RecircPorts: []asic.PortID{16, 17, 18, 19},
			Tables:      []fault.TableRef{{NF: "router", Table: "ipv4_lpm"}},
		},
		Probes: probes,
		Refresh: &ctl.TableWrite{
			NF: "router", Table: "ipv4_lpm",
			Args: []any{packet.IP4{0, 0, 0, 0}, 0,
				nf.NextHop{Port: uint16(scenario.PortUpstream), DstMAC: scenario.UpstreamMAC, SrcMAC: scenario.GatewayMAC}},
		},
	}
	return RunChaos(cfg, opts)
}
