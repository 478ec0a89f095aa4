// Command dejavu deploys the reference edge-cloud service chain on the
// switch model and reports placement, routing, resources and capacity.
//
// Usage:
//
//	dejavu plan                  # show placement + traversal analysis
//	dejavu plan -optimizer naive # compare against the strawman placer
//	dejavu plan -to new.json     # incremental rebuild plan + table delta
//	dejavu apply -f intent.json  # converge toward a declarative intent
//	dejavu apply -f i.json -dry-run -json
//	dejavu diff -f new.json -from old.json  # semantic intent delta
//	dejavu resources             # Table-1 style framework overhead
//	dejavu run                   # deploy and push sample traffic through
//	dejavu capacity -loopback 16 # §5 capacity analysis
//	dejavu lint                  # static verification (exit 1 on errors)
//	dejavu -config x.json lint -json
//	dejavu chaos -seed 7         # seeded fault soak with self-healing
//	dejavu fabricchaos -seed 7   # multi-switch fabric fault soak
//	dejavu benchbuild -rounds 50 # full vs incremental rebuild latency
//	dejavu serve -metrics :9090  # Prometheus /metrics + pprof over HTTP
//	dejavu top                   # one-shot telemetry snapshot
//	dejavu top -addr :9090       # scrape a running serve instance
//
// See docs/OBSERVABILITY.md for the metric catalogue and docs/CLI.md
// for the JSON schemas the subcommands emit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"dejavu/internal/asic"
	"dejavu/internal/config"
	"dejavu/internal/core"
	"dejavu/internal/fault"
	"dejavu/internal/packet"
	"dejavu/internal/pipeline"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
)

// configPath optionally points at a declarative JSON deployment spec;
// set via the global -config flag before the subcommand.
var configPath string

// command is one dejavu subcommand.
type command struct {
	name, summary string
	run           func(args []string) error
}

// commands is the one subcommand table: usage lists it and main
// dispatches through it.
var commands = []command{
	{"plan", "optimize and show NF placement and per-chain traversals", runPlan},
	{"apply", "converge the deployment toward a declarative intent document", runApply},
	{"diff", "print the semantic delta between two intent documents", runDiff},
	{"resources", "show the framework resource overhead report", runResources},
	{"run", "deploy and forward sample traffic on all three SFC paths", runTraffic},
	{"capacity", "show the capacity split for a loopback configuration", runCapacity},
	{"emit", "print the composed multi-pipeline P4 program", runEmit},
	{"lint", "statically verify the deployment; exit nonzero on errors", runLint},
	{"chaos", "replay a seeded fault schedule and check healing invariants", runChaos},
	{"fabricchaos", "replay fabric faults (switch/link) against a multi-switch path", runFabricChaos},
	{"benchbuild", "measure full vs incremental rebuild latency under churn", runBuildBench},
	{"serve", "serve Prometheus /metrics and pprof for the deployment", runServe},
	{"top", "print a one-shot telemetry snapshot (local or -addr scrape)", runTop},
}

func usage() {
	fmt.Fprint(os.Stderr, "usage: dejavu <command> [flags]\n\ncommands:\n")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-11s %s\n", c.name, c.summary)
	}
	os.Exit(2)
}

func main() {
	args := os.Args[1:]
	// Global flags before the subcommand.
	for len(args) > 1 && args[0] == "-config" {
		configPath = args[1]
		args = args[2:]
	}
	if len(args) < 1 {
		usage()
	}
	for _, c := range commands {
		if c.name == args[0] {
			if err := c.run(args[1:]); err != nil {
				fmt.Fprintln(os.Stderr, "dejavu:", err)
				os.Exit(1)
			}
			return
		}
	}
	usage()
}

// deployConfig is the one place a command builds its deployment: the
// declarative JSON document when configPath is set, else the reference
// scenario. A named optimizer overrides the placement strategy; "manual"
// (or empty) keeps the document's own, and for the scenario its Fig. 9
// hand placement.
func deployConfig(optimizer string) (core.Config, error) {
	manual := optimizer == "" || optimizer == "manual"
	if configPath != "" {
		cfg, err := config.Load(configPath)
		if err != nil {
			return core.Config{}, err
		}
		if !manual {
			cfg.Optimizer = core.Optimizer(optimizer)
		}
		return *cfg, nil
	}
	s := scenario.MustNew()
	cfg := core.Config{Prof: s.Prof, Chains: s.Chains, NFs: s.NFs}
	if manual {
		cfg.Placement = s.Placement
	} else {
		cfg.Optimizer = core.Optimizer(optimizer)
	}
	return cfg, nil
}

// deploy deploys deployConfig's deployment with loopback extra
// front-panel ports, from port 16 on, in loopback mode.
func deploy(optimizer string, loopback int) (*core.Deployment, error) {
	cfg, err := deployConfig(optimizer)
	if err != nil {
		return nil, err
	}
	for i := 0; i < loopback; i++ {
		cfg.LoopbackPorts = append(cfg.LoopbackPorts, asic.PortID(16+i))
	}
	return core.Deploy(cfg)
}

// planJSON is the `dejavu plan -json` document (docs/CLI.md).
type planJSON struct {
	From   string `json:"from,omitempty"`
	To     string `json:"to,omitempty"`
	Stages []struct {
		Name       string `json:"name"`
		CacheHit   bool   `json:"cache_hit"`
		Hash       string `json:"hash"`
		Detail     string `json:"detail,omitempty"`
		DurationNS int64  `json:"duration_ns"`
	} `json:"stages"`
	CacheHits       int      `json:"cache_hits"`
	CacheMisses     int      `json:"cache_misses"`
	ChangedPrograms []string `json:"changed_programs"`
	Delta           []struct {
		Op    string `json:"op"`
		Entry string `json:"entry"`
	} `json:"delta"`
	DeltaSize int `json:"delta_size"`
}

func newPlanJSON(from, to string, info pipeline.BuildInfo, changed []asic.PipeletID, delta []route.EntryOp) planJSON {
	out := planJSON{From: from, To: to, CacheHits: info.CacheHits, CacheMisses: info.CacheMisses}
	for _, s := range info.Stages {
		out.Stages = append(out.Stages, struct {
			Name       string `json:"name"`
			CacheHit   bool   `json:"cache_hit"`
			Hash       string `json:"hash"`
			Detail     string `json:"detail,omitempty"`
			DurationNS int64  `json:"duration_ns"`
		}{s.Name, s.CacheHit, s.Hash, s.Detail, int64(s.Duration)})
	}
	out.ChangedPrograms = []string{}
	for _, pl := range changed {
		out.ChangedPrograms = append(out.ChangedPrograms, pl.String())
	}
	out.Delta = []struct {
		Op    string `json:"op"`
		Entry string `json:"entry"`
	}{}
	for _, op := range delta {
		out.Delta = append(out.Delta, struct {
			Op    string `json:"op"`
			Entry string `json:"entry"`
		}{op.Op.String(), op.Entry.String()})
	}
	out.DeltaSize = len(delta)
	return out
}

func runPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	optimizer := fs.String("optimizer", "exhaustive", "manual|naive|greedy|anneal|exhaustive")
	to := fs.String("to", "", "target config: plan the incremental rebuild from -config to this spec")
	jsonOut := fs.Bool("json", false, "emit the build/rebuild plan as JSON")
	fs.Parse(args)
	d, err := deploy(*optimizer, 0)
	if err != nil {
		return err
	}
	if *to != "" {
		tcfg, err := config.Load(*to)
		if err != nil {
			return err
		}
		res, delta, err := d.PlanReconfigure(tcfg.Chains)
		if err != nil {
			return err
		}
		if *jsonOut {
			out, err := json.MarshalIndent(newPlanJSON(configPath, *to, res.Info, res.ChangedFuncs, delta), "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(out))
			return nil
		}
		fmt.Printf("incremental rebuild %s -> %s\n", planSource(), *to)
		fmt.Print(res.Info.Summary())
		if len(res.ChangedFuncs) == 0 {
			fmt.Println("pipelet programs: all cached, none reloaded")
		} else {
			fmt.Printf("pipelet programs reloaded: %d\n", len(res.ChangedFuncs))
			for _, pl := range res.ChangedFuncs {
				fmt.Printf("  %s\n", pl)
			}
		}
		adds, dels, mods := 0, 0, 0
		for _, op := range delta {
			switch op.Op {
			case route.OpAdd:
				adds++
			case route.OpDel:
				dels++
			default:
				mods++
			}
		}
		fmt.Printf("branching delta: %d ops (%d add, %d del, %d mod)\n", len(delta), adds, dels, mods)
		for _, op := range delta {
			fmt.Printf("  %s\n", op)
		}
		return nil
	}
	if *jsonOut {
		out, err := json.MarshalIndent(newPlanJSON(planSource(), "", d.LastBuild, nil, nil), "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	fmt.Print(d.Summary())
	fmt.Println("\nplacement:")
	for _, f := range d.Config.NFs {
		at, _ := d.Placement.Of(f.Name())
		fmt.Printf("  %-12s -> %s\n", f.Name(), at)
	}
	fmt.Println("\nbuild pipeline:")
	fmt.Print(d.LastBuild.Summary())
	return nil
}

// planSource names the plan's starting configuration for reports.
func planSource() string {
	if configPath != "" {
		return configPath
	}
	return "reference scenario"
}

func runResources(args []string) error {
	fs := flag.NewFlagSet("resources", flag.ExitOnError)
	optimizer := fs.String("optimizer", "manual", "manual|naive|greedy|anneal|exhaustive")
	fs.Parse(args)
	d, err := deploy(*optimizer, 0)
	if err != nil {
		return err
	}
	writeResources(os.Stdout, d)
	return nil
}

// writeResources prints the resource report; pipelets appear in the
// profile's order, not the plan map's.
func writeResources(w io.Writer, d *core.Deployment) {
	fmt.Fprintln(w, "Dejavu framework resource overhead (cf. paper Table 1):")
	fmt.Fprint(w, d.Resources.String())
	fmt.Fprintln(w, "\nper-pipelet stage allocation:")
	for _, pl := range d.Config.Prof.Pipelets() {
		if plan := d.Plans[pl]; plan != nil {
			fmt.Fprintf(w, "  %-10s: %d stages used (%d with framework tables)\n",
				pl, plan.StagesUsed(), plan.FrameworkStages())
		}
	}
}

func runTraffic(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	optimizer := fs.String("optimizer", "manual", "manual|naive|greedy|anneal|exhaustive")
	fs.Parse(args)
	d, err := deploy(*optimizer, 0)
	if err != nil {
		return err
	}
	inject := func(name string, mk func() *packet.Parsed) error {
		tr, err := d.Inject(scenario.PortClient, mk())
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		status := "delivered"
		if tr.Dropped {
			status = "dropped (" + tr.DropReason + ")"
		}
		fmt.Printf("%-24s %-10s recircs=%d latency=%v path=%s\n",
			name, status, tr.Recirculations, tr.Latency, tr.Path())
		for _, o := range tr.Out {
			fmt.Printf("  out port %-4d %s\n", o.Port, o.Pkt.String())
		}
		return nil
	}
	if err := inject("full path (miss+learn)", func() *packet.Parsed { return scenario.ClientTCP(443) }); err != nil {
		return err
	}
	if err := inject("full path (hit)", func() *packet.Parsed { return scenario.ClientTCP(443) }); err != nil {
		return err
	}
	if err := inject("firewall deny", func() *packet.Parsed { return scenario.ClientTCP(22) }); err != nil {
		return err
	}
	if err := inject("tenant (VXLAN encap)", scenario.TenantBound); err != nil {
		return err
	}
	if err := inject("internet (default route)", scenario.InternetBound); err != nil {
		return err
	}
	st := d.Controller.Stats()
	fmt.Printf("\ncontrol plane: %d sessions installed, %d reinjects\n", st.SessionsInstalled, st.Reinjected)
	nfs, paths := d.Telemetry().Snapshot()
	fmt.Println("telemetry:")
	for _, pc := range paths {
		fmt.Printf("  path %-5d %d packets\n", pc.Path, pc.Packets)
	}
	for _, nc := range nfs {
		fmt.Printf("  nf %-12s %d executions\n", nc.Name, nc.Executions)
	}
	return nil
}

func runEmit(args []string) error {
	fs := flag.NewFlagSet("emit", flag.ExitOnError)
	optimizer := fs.String("optimizer", "manual", "manual|naive|greedy|anneal|exhaustive")
	fs.Parse(args)
	d, err := deploy(*optimizer, 0)
	if err != nil {
		return err
	}
	src, err := d.P4Source()
	if err != nil {
		return err
	}
	fmt.Print(src)
	return nil
}

// runLint statically verifies the configured deployment without
// touching the switch model. Exit status: 0 when no error-severity
// findings exist (warn/info are advisory), 1 otherwise.
func runLint(args []string) error {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	optimizer := fs.String("optimizer", "manual", "manual|naive|greedy|anneal|exhaustive")
	fs.Parse(args)

	cfg, err := deployConfig(*optimizer)
	if err != nil {
		return err
	}
	rep, err := core.Lint(cfg)
	if err != nil {
		return err
	}
	if *jsonOut {
		js, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Print(js)
	} else {
		fmt.Print(rep.String())
	}
	if rep.HasErrors() {
		return fmt.Errorf("lint: %d error finding(s)", rep.Errors())
	}
	return nil
}

// runChaos replays a seeded random fault schedule against the
// deployment, reconciling and probing after every tick. Without
// -config it runs the reference edge-cloud soak (the same harness the
// chaos tests use); with -config it derives the fault surface from the
// loaded spec. Exit status: 0 when every invariant held, 1 otherwise.
func runChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "fault schedule seed")
	ticks := fs.Int("ticks", 40, "timeline length in ticks")
	verbose := fs.Bool("v", false, "print the full transcript before the summary")
	jsonOut := fs.Bool("json", false, "emit the full result as JSON (includes the transcript with -v)")
	fs.Parse(args)

	var res *core.ChaosResult
	if configPath != "" {
		cfg, err := config.Load(configPath)
		if err != nil {
			return err
		}
		// Derive the fault surface from the spec: loopback ports take
		// recirculation overloads, static exit ports flap, the enter
		// port sees wire corruption.
		so := fault.ScheduleOpts{
			Ticks:       *ticks,
			WirePorts:   []asic.PortID{asic.PortID(cfg.Enter)},
			RecircPorts: cfg.LoopbackPorts,
		}
		for _, c := range cfg.Chains {
			if c.HasStaticExit() {
				so.FlapPorts = append(so.FlapPorts, c.StaticExitPort)
			}
		}
		res, err = core.RunChaos(*cfg, core.ChaosOpts{Seed: *seed, Ticks: *ticks, ScheduleOpts: so})
		if err != nil {
			return err
		}
	} else {
		var err error
		res, err = core.EdgeChaos(*seed, *ticks)
		if err != nil {
			return err
		}
	}
	if *jsonOut {
		if !*verbose {
			res.Log = nil // the transcript is opt-in; it dwarfs the result
		}
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	} else {
		if *verbose {
			for _, line := range res.Log {
				fmt.Println(line)
			}
			fmt.Println()
		}
		fmt.Print(res.Summary())
	}
	if !res.OK() {
		return fmt.Errorf("chaos: %d invariant violation(s)", len(res.Violations))
	}
	return nil
}

// runFabricChaos replays a seeded fabric fault schedule — switch
// kills, link cuts, wire corruption windows — against the edge-cloud
// chain set segmented over a multi-switch fabric, reconciling and
// probing across the fabric after every tick. Exit status: 0 when
// every fabric invariant held, 1 otherwise.
func runFabricChaos(args []string) error {
	fs := flag.NewFlagSet("fabricchaos", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "fabric fault schedule seed")
	ticks := fs.Int("ticks", 40, "timeline length in ticks")
	switches := fs.Int("switches", 3, "fabric size")
	verbose := fs.Bool("v", false, "print the full transcript before the summary")
	jsonOut := fs.Bool("json", false, "emit the full result as JSON (includes the transcript with -v)")
	fs.Parse(args)

	res, err := core.RunFabricChaos(core.FabricChaosOpts{
		Seed: *seed, Ticks: *ticks, Switches: *switches,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		if !*verbose {
			res.Log = nil // the transcript is opt-in; it dwarfs the result
		}
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	} else {
		if *verbose {
			for _, line := range res.Log {
				fmt.Println(line)
			}
			fmt.Println()
		}
		fmt.Print(res.Summary())
	}
	if !res.OK() {
		return fmt.Errorf("fabricchaos: %d invariant violation(s)", len(res.Violations))
	}
	return nil
}

func runCapacity(args []string) error {
	fs := flag.NewFlagSet("capacity", flag.ExitOnError)
	loopback := fs.Int("loopback", 16, "front-panel ports in loopback mode")
	offered := fs.Float64("offered", 1600, "offered external load (Gbps)")
	fs.Parse(args)
	d, err := deploy("manual", *loopback)
	if err != nil {
		return err
	}
	fmt.Printf("ports: %d total, %d loopback\n", d.Capacity.TotalPorts, d.Capacity.LoopbackPorts)
	fmt.Printf("external capacity:   %8.0f Gbps\n", d.Capacity.ExternalGbps())
	fmt.Printf("loopback bandwidth:  %8.0f Gbps (incl. dedicated recirc ports)\n", d.LoopbackGbps())
	fmt.Printf("weighted recircs:    %8.2f per packet\n", d.WeightedRecirculations())
	fmt.Printf("effective throughput at %.0f G offered: %.0f Gbps\n",
		*offered, d.EffectiveThroughputGbps(*offered))
	return nil
}
