// Package core orchestrates a complete Dejavu deployment: it takes a
// set of weighted service chains and NF implementations, optimizes the
// NF placement for minimal recirculations (§3.3), composes per-pipelet
// programs with the framework tables (§3.2, §3.4), verifies the result
// fits the ASIC's stage budget like a P4 compiler would, loads the
// behavioural programs onto the switch model, configures loopback
// bandwidth, and reports the resource and throughput analysis of §4–§5.
// One staged build (internal/pipeline) does the composing and the
// verifying for Deploy, Compose, every live update and Lint alike.
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dejavu/internal/asic"
	"dejavu/internal/compiler"
	"dejavu/internal/compose"
	"dejavu/internal/ctl"
	"dejavu/internal/fault"
	"dejavu/internal/lint"
	"dejavu/internal/nf"
	"dejavu/internal/packet"
	"dejavu/internal/pipeline"
	"dejavu/internal/recirc"
	"dejavu/internal/route"
	"dejavu/internal/telemetry"
)

// Optimizer selects a placement strategy.
type Optimizer string

// Available optimizers.
const (
	OptExhaustive Optimizer = "exhaustive"
	OptAnneal     Optimizer = "anneal"
	OptGreedy     Optimizer = "greedy"
	OptNaive      Optimizer = "naive"
)

// Config describes one deployment.
type Config struct {
	Prof   asic.Profile
	Chains []route.Chain
	NFs    nf.List
	// Enter is the pipeline receiving external traffic.
	Enter int
	// Placement, when non-nil, is used verbatim; otherwise the chosen
	// Optimizer computes one.
	Placement *route.Placement
	Optimizer Optimizer
	// Pin fixes NFs to pipelets during optimization (the classifier is
	// pinned to the entry ingress automatically when present).
	Pin map[string]asic.PipeletID
	// LoopbackPorts puts extra front-panel ports into on-chip loopback
	// mode for recirculation bandwidth (§4) while they are up; the
	// per-pipeline dedicated recirculation ports are always available.
	LoopbackPorts []asic.PortID
	// AnnealSeed seeds the annealing optimizer.
	AnnealSeed int64
	// StrictLint makes composition refuse deployments with
	// error-severity static-verification findings (internal/lint): the
	// gate at the end of the build's lint stage. Warn and info findings
	// never block; they appear in Deployment.Lint.
	StrictLint bool
	// Telemetry attaches a dvtel datapath counter set (per-pipelet
	// passes, drops by reason, latency/recirculation histograms) to the
	// switch. The hot path stays allocation-free with it on.
	Telemetry bool
	// Postcards enables in-band per-hop postcard telemetry: pipelets
	// stamp hop records into the SFC context area and chain exits decode
	// them into Deployment.Postcards. Implies extra per-packet work;
	// see docs/OBSERVABILITY.md.
	Postcards bool
}

// ChainReport is the per-chain analysis of a deployment.
type ChainReport struct {
	Chain          route.Chain
	Traversal      route.Traversal
	Recirculations int
}

// Deployment is a ready-to-use Dejavu instance.
type Deployment struct {
	Config     Config
	Switch     *asic.Switch
	Controller *ctl.Controller
	Placement  *route.Placement
	Cost       route.Cost
	// Chains reports each installed chain as it runs, on the static exit
	// the port health allows; Config.Chains holds the declared exits.
	Chains []ChainReport
	// Plans holds the per-pipelet stage allocations.
	Plans map[asic.PipeletID]*compiler.Plan
	// Resources is the Table-1 style framework overhead report.
	Resources compiler.Report
	// Capacity describes the external/loopback bandwidth split.
	Capacity recirc.CapacitySplit
	// Deploymentable parser metadata.
	ParserStates int
	// Lint is the static-verification report of the composed
	// deployment; it is recorded even when StrictLint is off (a strict
	// deployment reaching this point has no error findings).
	Lint *lint.Report
	// Datapath is the switch-level telemetry counter set, non-nil when
	// Config.Telemetry is on.
	Datapath *telemetry.Datapath
	// Postcards is the in-band hop-trace log, non-nil when
	// Config.Postcards is on.
	Postcards *telemetry.PostcardLog

	// LastBuild is the staged-pipeline report of the most recent build
	// (the initial deploy, then every AddChain/RemoveChain/Reconfigure):
	// per-stage cache status, hashes and timings.
	LastBuild pipeline.BuildInfo
	// LastDelta is the branching-table write-set the most recent build
	// pushed: after Deploy, every entry of the initial program.
	LastDelta []route.EntryOp
	// LastReloaded lists the pipelets whose programs the most recent
	// build actually reloaded — none on a proved no-op rebuild.
	LastReloaded []asic.PipeletID
	// Control records this deployment's builds and hot swaps, exported
	// by RegisterMetrics.
	Control *telemetry.Control
	// Driver is the retrying control-plane write path hot swaps push
	// their delta through; tests may swap in one wrapping a
	// fault.FlakyApplier.
	Driver *fault.Driver

	// installed is the build on the switch and its artifact cache:
	// reconfigurations rebuild and push only what changed.
	installed pipeline.Installed
	// down lists the front-panel ports the last Reconcile round found
	// down, ascending: what the next round reports changes against.
	down []asic.PortID
}

// publishLoopback writes the declared loopback ports' modes: each one
// that is up is put in loopback mode, and so takes its turn in its
// pipeline's recirculation spreading (asic.Switch.SetLoopback); each one
// that is down is taken out. It writes only what changed and returns
// how many ports are live.
func publishLoopback(sw *asic.Switch, declared []asic.PortID) (int, error) {
	prof := sw.Profile()
	live := 0
	for _, port := range declared {
		if !prof.ValidPort(port) || asic.IsRecircPort(port) || port == asic.PortCPU {
			return 0, fmt.Errorf("core: loopback %d: not a front-panel port", port)
		}
		up, mode := sw.PortIsUp(port), asic.LoopbackOff
		if up {
			mode = asic.LoopbackOnChip
			live++
		}
		if sw.LoopbackModeOf(port) != mode {
			if err := sw.SetLoopback(port, mode); err != nil {
				return 0, fmt.Errorf("core: loopback %d: %w", port, err)
			}
		}
	}
	return live, nil
}

// P4Source renders the deployment as a single multi-pipeline
// P4-16-style program (§3.2).
func (d *Deployment) P4Source() (string, error) {
	return d.installed.Res.Dep.EmitP4()
}

// Telemetry returns the datapath's per-NF and per-path counters.
func (d *Deployment) Telemetry() *compose.Telemetry {
	return d.installed.Res.Composer.Telemetry()
}

// buildInputs translates a deployment config into the staged build
// pipeline's input declaration under a given placement (nil: optimize).
func buildInputs(cfg Config, placement *route.Placement) pipeline.Inputs {
	return pipeline.Inputs{
		Prof:       cfg.Prof,
		Chains:     cfg.Chains,
		NFs:        cfg.NFs,
		Enter:      cfg.Enter,
		Placement:  placement,
		Optimizer:  string(cfg.Optimizer),
		Pin:        cfg.Pin,
		AnnealSeed: cfg.AnnealSeed,
		Strict:     cfg.StrictLint,
	}
}

// Compose runs placement optimization and program composition without
// touching a switch: the staged build pipeline resolves the placement,
// composes the per-pipelet programs plus framework tables, and the
// assembled deployment comes back with its weighted recirculation
// cost. When strict, a deployment with error-severity lint findings is
// refused here rather than misbehaving on the ASIC.
func Compose(cfg Config, strict bool) (*compose.Deployment, route.Cost, error) {
	in := buildInputs(cfg, cfg.Placement)
	in.Strict = strict
	res, err := pipeline.Build(in, nil)
	if err != nil {
		return nil, route.Cost{}, err
	}
	return res.Dep, res.Cost, nil
}

// Lint statically verifies a configuration without deploying it: it
// is the lint report of the staged build Deploy runs, whose lint stage
// also reports why a build cannot deploy (a parser-merge conflict, a
// pipelet that does not compose or does not fit its stages). It fails
// only when the build stops before lint, e.g. on a placement it cannot
// resolve.
func Lint(cfg Config) (*lint.Report, error) {
	res, err := pipeline.Build(buildInputs(cfg, cfg.Placement), nil)
	if res == nil {
		return nil, err
	}
	return res.Lint, nil
}

// sortedPlans renders a plan map as a list sorted by block name — the
// order compiler.FrameworkReport expects.
func sortedPlans(plans map[asic.PipeletID]*compiler.Plan) []*compiler.Plan {
	out := make([]*compiler.Plan, 0, len(plans))
	for _, plan := range plans {
		out = append(out, plan)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Block.Name < out[j].Block.Name })
	return out
}

// chainReports pairs each chain with its traversal analysis.
func chainReports(chains []route.Chain, travs []route.Traversal) []ChainReport {
	out := make([]ChainReport, 0, len(chains))
	for i, ch := range chains {
		out = append(out, ChainReport{
			Chain: ch, Traversal: travs[i], Recirculations: travs[i].Recirculations,
		})
	}
	return out
}

// Deploy builds a deployment from a config. The build runs through the
// staged incremental pipeline exactly once — placement, composition,
// allocation, routing and lint each happen a single time regardless of
// StrictLint — and reaches the new switch the way every later update
// does: staged against an empty installed state and committed as one
// program transaction. The artifact cache stays with the deployment so
// live reconfigurations rebuild only invalidated stages.
func Deploy(cfg Config) (*Deployment, error) {
	if cfg.Prof.Pipelines == 0 {
		cfg.Prof = asic.Wedge100B()
	}
	d := &Deployment{Control: telemetry.NewControl(), installed: pipeline.Installed{Cache: pipeline.NewCache()}}
	st := &staged{cfg: cfg}
	var err error
	if st.next, st.delta, err = d.installed.Stage(buildInputs(cfg, cfg.Placement)); err != nil {
		return nil, err
	}

	sw := asic.New(cfg.Prof)
	// The switch spreads recirculation over the configured loopback
	// ports of each pipeline (§5 puts 16 ports in loopback for exactly
	// this bandwidth); the dedicated recirculation port is the fallback.
	live, err := publishLoopback(sw, cfg.LoopbackPorts)
	if err != nil {
		return nil, err
	}
	d.Switch, d.Controller = sw, ctl.New(sw, cfg.NFs)
	d.Driver = fault.NewDriver(d.Controller)
	d.Capacity = recirc.CapacitySplit{
		TotalPorts:    cfg.Prof.TotalPorts(),
		LoopbackPorts: live,
		PortGbps:      cfg.Prof.PortGbps,
	}
	if err := d.commit(st); err != nil {
		return nil, err
	}
	if cfg.Postcards {
		d.Postcards = telemetry.NewPostcardLog(0)
		st.next.Res.Composer.SetPostcardLog(d.Postcards)
	}
	return d, nil
}

// adopt makes a build that reached the switch the deployment's state:
// config, placement, plans, reports and datapath collector, together.
func (d *Deployment) adopt(st *staged) {
	res := st.next.Res
	d.Config = st.cfg
	d.Placement = res.Placement
	d.Cost = res.Cost
	d.Plans = res.Plans
	d.Resources = compiler.FrameworkReport(st.cfg.Prof, sortedPlans(res.Plans))
	d.ParserStates = res.Dep.Parser.ParseStates()
	d.Chains = chainReports(res.Composer.Chains, res.Traversals)
	d.Lint = res.Lint
	d.LastBuild = res.Info
	d.LastDelta = st.delta
	d.LastReloaded = res.ChangedFuncs
	if on := d.Config.Telemetry; on != (d.Datapath != nil) {
		d.Datapath = nil
		if on {
			d.Datapath = telemetry.NewDatapath(d.Config.Prof.Pipelines)
		}
		d.Switch.SetTelemetry(d.Datapath)
	}
	d.Control.RecordBuild(res.Info.CacheHits, res.Info.CacheMisses, int64(res.Info.Duration))
}

// MaxRecirculations returns the worst-case recirculation count across
// chains.
func (d *Deployment) MaxRecirculations() int {
	m := 0
	for _, c := range d.Chains {
		if c.Recirculations > m {
			m = c.Recirculations
		}
	}
	return m
}

// WeightedRecirculations returns the traffic-weighted mean
// recirculation count.
func (d *Deployment) WeightedRecirculations() float64 {
	var sum, w float64
	for _, c := range d.Chains {
		cw := c.Chain.EffectiveWeight()
		sum += cw * float64(c.Recirculations)
		w += cw
	}
	if w == 0 {
		return 0
	}
	return sum / w
}

// LoopbackGbps returns the recirculation bandwidth available:
// dedicated recirculation ports plus configured loopback ports.
func (d *Deployment) LoopbackGbps() float64 {
	dedicated := float64(d.Config.Prof.Pipelines) * d.Config.Prof.RecircGbps
	return dedicated + d.Capacity.LoopbackGbps()
}

// EffectiveThroughputGbps estimates the egress rate when `offered`
// Gbps of external traffic follows the configured chain mix: each
// chain contributes a traffic class with its own recirculation count,
// and all classes share the loopback budget under the §4 feedback-
// queue model (see recirc.MixedThroughput).
func (d *Deployment) EffectiveThroughputGbps(offered float64) float64 {
	total := 0.0
	for _, egress := range d.PerChainThroughputGbps(offered) {
		total += egress
	}
	return total
}

// PerChainThroughputGbps returns the per-chain egress rates for a
// given offered load, in the order of d.Chains: the chains split the
// offered load by weight and share the loopback budget.
func (d *Deployment) PerChainThroughputGbps(offered float64) []float64 {
	var totalW float64
	for _, c := range d.Chains {
		totalW += c.Chain.EffectiveWeight()
	}
	if totalW == 0 {
		return nil
	}
	streams := make([]recirc.Stream, 0, len(d.Chains))
	for _, c := range d.Chains {
		streams = append(streams, recirc.Stream{
			OfferedGbps:    offered * c.Chain.EffectiveWeight() / totalW,
			Recirculations: c.Recirculations,
		})
	}
	return recirc.MixedThroughput(streams, d.LoopbackGbps())
}

// Summary renders a human-readable deployment report.
func (d *Deployment) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Dejavu deployment on %s\n", d.Config.Prof.Name)
	fmt.Fprintf(&sb, "external capacity: %.0f Gbps, loopback: %.0f Gbps\n",
		d.Capacity.ExternalGbps(), d.LoopbackGbps())
	fmt.Fprintf(&sb, "placement cost: %.2f weighted recirculations\n", d.Cost.WeightedRecircs)
	for _, c := range d.Chains {
		fmt.Fprintf(&sb, "  chain %d (w=%.2f): %d recircs, path %s\n",
			c.Chain.PathID, c.Chain.Weight, c.Recirculations, c.Traversal.Path())
	}
	fmt.Fprintf(&sb, "generic parser: %d states\n", d.ParserStates)
	fmt.Fprintf(&sb, "framework resource overhead:\n")
	for _, l := range d.Resources.Lines {
		fmt.Fprintf(&sb, "  %-10s %5.1f%%\n", l.Name, l.Percent)
	}
	return sb.String()
}

// Inject offers a packet to the switch and services any control-plane
// punts, returning the final trace (of the reinjected packet when a
// punt was repaired). The trace and the packets it shows are the
// caller's.
func (d *Deployment) Inject(port asic.PortID, pkt *packetAlias) (*asic.Trace, error) {
	tr, err := d.Switch.Inject(port, pkt)
	if err != nil {
		return tr, err
	}
	if len(tr.CPU) > 0 {
		followups, err := d.Controller.Poll()
		if err != nil {
			return tr, err
		}
		if len(followups) > 0 {
			return detach(followups[len(followups)-1]), nil
		}
	}
	return tr, nil
}

// detach copies a trace Poll returned, and the packets it emitted, into
// storage of its own: the next Poll reuses the memory of both. Punted
// copies are the trace's own already.
func detach(tr *asic.Trace) *asic.Trace {
	cp := *tr
	cp.Steps = slices.Clone(tr.Steps)
	cp.Out = slices.Clone(tr.Out)
	for i := range cp.Out {
		cp.Out[i].Pkt = tr.Out[i].Pkt.Clone()
	}
	return &cp
}

// packetAlias keeps the public signature concise.
type packetAlias = packet.Parsed
