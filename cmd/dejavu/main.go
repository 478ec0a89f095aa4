// Command dejavu deploys the reference edge-cloud service chain on the
// switch model and reports placement, routing, resources and capacity.
//
// Usage:
//
//	dejavu plan                  # placement, traversals, resources, capacity
//	dejavu plan -optimizer manual -loopback 16 -offered 1600
//	dejavu apply -f intent.json  # converge toward a declarative intent
//	dejavu apply -f i.json -dry-run -json
//	dejavu apply -from old.json -f new.json -dry-run  # rebuild plan + table delta
//	dejavu diff -f new.json -from old.json  # semantic intent delta
//	dejavu run                   # deploy and push sample traffic through
//	dejavu lint                  # static verification (exit 1 on errors)
//	dejavu -config x.json lint -json
//	dejavu chaos -seed 7         # seeded fault soak with self-healing
//	dejavu chaos -switches 3     # the same over a multi-switch fabric
//	dejavu serve -metrics :9090  # Prometheus /metrics + pprof over HTTP
//	dejavu top                   # one-shot telemetry snapshot
//	dejavu top -addr :9090       # scrape a running serve instance
//
// Every -config, -f and -from file is an intent document (docs/INTENT.md).
// See docs/OBSERVABILITY.md for the metric catalogue and docs/CLI.md
// for the JSON schemas the subcommands emit.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"dejavu/internal/asic"
	"dejavu/internal/cluster"
	"dejavu/internal/core"
	"dejavu/internal/fault"
	"dejavu/internal/intent"
	"dejavu/internal/packet"
	"dejavu/internal/pipeline"
	"dejavu/internal/scenario"
)

// configPath optionally points at an intent document; set via the
// global -config flag before the subcommand.
var configPath string

// command is one dejavu subcommand.
type command struct {
	name, summary string
	run           func(args []string) error
}

// commands is the one subcommand table: usage lists it and main
// dispatches through it.
var commands = []command{
	{"plan", "show placement, traversals, resources and capacity", runPlan},
	{"apply", "converge the deployment toward a declarative intent document", runApply},
	{"diff", "print the semantic delta between two intent documents", runDiff},
	{"run", "deploy and forward sample traffic on all three SFC paths", runTraffic},
	{"emit", "print the composed multi-pipeline P4 program", runEmit},
	{"lint", "statically verify the deployment; exit nonzero on errors", runLint},
	{"chaos", "replay a seeded fault schedule (-switches N: on a fabric) and check healing", runChaos},
	{"serve", "serve Prometheus /metrics and pprof for the deployment", runServe},
	{"top", "print a one-shot telemetry snapshot (local or -addr scrape)", runTop},
}

func usage() {
	fmt.Fprint(os.Stderr, "usage: dejavu [-config intent.json] <command> [flags]\n\ncommands:\n")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-11s %s\n", c.name, c.summary)
	}
	os.Exit(2)
}

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dejavu:", err)
		os.Exit(1)
	}
}

// dispatch runs one command line: the global flags, then a command of
// the table with its own flags.
func dispatch(args []string) error {
	configPath = ""
	for len(args) > 1 && args[0] == "-config" {
		configPath = args[1]
		args = args[2:]
	}
	if len(args) < 1 {
		usage()
	}
	for _, c := range commands {
		if c.name == args[0] {
			return c.run(args[1:])
		}
	}
	usage()
	return nil
}

// errFabricDocument refuses a document with a fabric section on a
// single-switch command: one ASIC cannot deploy the fleet it declares.
// `dejavu apply` converges such a document.
var errFabricDocument = errors.New("the document declares a fabric; single-switch commands deploy one switch (use apply)")

// loadDocument reads the intent document at path for a single-switch
// command and builds its deployment.
func loadDocument(path string) (*intent.Document, *core.Config, error) {
	doc, err := intent.Load(path)
	if err != nil {
		return nil, nil, err
	}
	if doc.Fabric != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, errFabricDocument)
	}
	cfg, err := doc.BuildConfig()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, cfg, nil
}

// deployConfig is the one place a command builds its deployment: the
// intent document when configPath is set, else the reference scenario.
// A named optimizer overrides the placement strategy; "manual" (or
// empty) keeps the document's own, and for the scenario its Fig. 9 hand
// placement.
func deployConfig(optimizer string) (core.Config, error) {
	manual := optimizer == "" || optimizer == "manual"
	if configPath != "" {
		_, cfg, err := loadDocument(configPath)
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

// planJSON is the `dejavu plan -json` document (docs/CLI.md). Its
// changed_programs and delta are always empty and kept for the schema:
// `apply -dry-run -json` lists an update's write-set.
type planJSON struct {
	From            string      `json:"from,omitempty"`
	Stages          []stageJSON `json:"stages"`
	CacheHits       int         `json:"cache_hits"`
	CacheMisses     int         `json:"cache_misses"`
	ChangedPrograms []string    `json:"changed_programs"`
	Delta           []opJSON    `json:"delta"`
	DeltaSize       int         `json:"delta_size"`
}

// stageJSON is one build stage of planJSON.
type stageJSON struct {
	Name       string `json:"name"`
	CacheHit   bool   `json:"cache_hit"`
	Hash       string `json:"hash"`
	Detail     string `json:"detail,omitempty"`
	DurationNS int64  `json:"duration_ns"`
}

// printJSON writes v to stdout as indented JSON: the one writer of every
// -json report. '<', '>' and '&' stay themselves, so a chaos transcript
// reads "wire 0:10 -> 1:10", not "-\u003e".
func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func newPlanJSON(from string, info pipeline.BuildInfo) planJSON {
	out := planJSON{From: from, CacheHits: info.CacheHits, CacheMisses: info.CacheMisses,
		ChangedPrograms: []string{}, Delta: []opJSON{}}
	for _, s := range info.Stages {
		out.Stages = append(out.Stages, stageJSON{s.Name, s.CacheHit, s.Hash, s.Detail, int64(s.Duration)})
	}
	return out
}

func runPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	optimizer := fs.String("optimizer", "", "manual|naive|greedy|anneal|exhaustive (default: the -config document's own, exhaustive for the reference scenario)")
	loopback := fs.Int("loopback", 0, "extra front-panel ports in loopback mode, from port 16 on")
	offered := fs.Float64("offered", 1600, "offered external load (Gbps) for the throughput estimate")
	jsonOut := fs.Bool("json", false, "emit the build plan as JSON")
	fs.Parse(args)
	if configPath == "" {
		*optimizer = cmp.Or(*optimizer, string(core.OptExhaustive))
	}
	d, err := deploy(*optimizer, *loopback)
	if err != nil {
		return err
	}
	if *jsonOut {
		return printJSON(newPlanJSON(cmp.Or(configPath, "reference scenario"), d.LastBuild))
	}
	writePlan(os.Stdout, d, *offered)
	return nil
}

// writePlan prints the deployment report: traversals, placement, the
// Table-1 framework resources, per-pipelet stage allocation in the
// profile's pipelet order (not the plan map's), the §5 capacity split at
// offered Gbps, and the build pipeline.
func writePlan(w io.Writer, d *core.Deployment, offered float64) {
	fmt.Fprint(w, d.Summary())
	fmt.Fprintln(w, "\nplacement:")
	for _, f := range d.Config.NFs {
		at, _ := d.Placement.Of(f.Name())
		fmt.Fprintf(w, "  %-12s -> %s\n", f.Name(), at)
	}
	fmt.Fprintln(w, "\nframework resources used (cf. paper Table 1):")
	fmt.Fprint(w, d.Resources.String())
	fmt.Fprintln(w, "\nper-pipelet stage allocation:")
	for _, pl := range d.Config.Prof.Pipelets() {
		if plan := d.Plans[pl]; plan != nil {
			fmt.Fprintf(w, "  %-10s: %d stages used (%d with framework tables)\n",
				pl, plan.StagesUsed(), plan.FrameworkStages())
		}
	}
	fmt.Fprintln(w, "\ncapacity:")
	fmt.Fprintf(w, "  ports: %d total, %d loopback\n", d.Capacity.TotalPorts, d.Capacity.LoopbackPorts)
	fmt.Fprintf(w, "  weighted recircs: %.2f per packet\n", d.WeightedRecirculations())
	fmt.Fprintf(w, "  effective throughput at %.0f G offered: %.0f Gbps\n",
		offered, d.EffectiveThroughputGbps(offered))
	fmt.Fprintln(w, "\nbuild pipeline:")
	fmt.Fprint(w, d.LastBuild.Summary())
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
	for _, p := range []struct {
		name string
		mk   func() *packet.Parsed
	}{
		{"full path (miss+learn)", func() *packet.Parsed { return scenario.ClientTCP(443) }},
		{"full path (hit)", func() *packet.Parsed { return scenario.ClientTCP(443) }},
		{"firewall deny", func() *packet.Parsed { return scenario.ClientTCP(22) }},
		{"tenant (VXLAN encap)", scenario.TenantBound},
		{"internet (default route)", scenario.InternetBound},
	} {
		if err := inject(p.name, p.mk); err != nil {
			return err
		}
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

// runChaos replays a seeded random fault schedule, reconciling and
// probing after every tick. Without -config it runs core.EdgeSoak, the
// reference edge-cloud soak the chaos tests use, on one switch or, with
// -switches N, segmented over an N-switch fabric with switch kills,
// link cuts and wire corruption. With -config it derives the fault
// surface from the document, which declares no probes, so that soak
// sends none. Exit status: 0 when every invariant held, 1 otherwise.
func runChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "fault schedule seed")
	ticks := fs.Int("ticks", 40, "timeline length in ticks (0: 40)")
	switches := fs.Int("switches", 0, "soak over a fabric of this many switches (0: one switch)")
	verbose := fs.Bool("v", false, "print the full transcript before the summary")
	jsonOut := fs.Bool("json", false, "emit the full result as JSON (includes the transcript with -v)")
	fs.Parse(args)

	var s core.Soak
	var err error
	switch {
	case configPath == "":
		s, err = core.EdgeSoak(*seed, *ticks, *switches)
	case *switches != 0:
		return fmt.Errorf("chaos: -switches soaks the reference chains and takes no -config")
	default:
		doc, cfg, lerr := loadDocument(configPath)
		if lerr != nil {
			return lerr
		}
		so := faultSurface(doc, cfg.Prof, cmp.Or(*ticks, 40)) // RunSoak's default timeline
		s = core.Soak{Seed: *seed, Ticks: *ticks, Config: *cfg, Schedule: fault.RandomSchedule(*seed, so)}
	}
	if err != nil {
		return err
	}
	res, err := core.RunSoak(s)
	if err != nil {
		return err
	}
	// The transcript comes with -v only, in both forms; it dwarfs the result.
	if !*verbose {
		res.Log = nil
	}
	if *jsonOut {
		if err := printJSON(res); err != nil {
			return err
		}
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

// faultSurface derives a chaos schedule's fault surface from the
// front-panel ports the document names: its loopback ports take
// recirculation overloads, its static exits flap, and every exit wire —
// a static exit or a route's egress port — sees corruption.
func faultSurface(doc *intent.Document, prof asic.Profile, ticks int) fault.ScheduleOpts {
	so := fault.ScheduleOpts{Ticks: ticks}
	onPanel := func(p int) bool { return p >= 0 && p < prof.TotalPorts() }
	for _, p := range doc.LoopbackPorts {
		if onPanel(p) {
			so.RecircPorts = append(so.RecircPorts, asic.PortID(p))
		}
	}
	wires := make(map[asic.PortID]bool)
	for _, c := range doc.Chains {
		if c.StaticExitPort != 0 && onPanel(c.StaticExitPort) {
			so.FlapPorts = append(so.FlapPorts, asic.PortID(c.StaticExitPort))
			wires[asic.PortID(c.StaticExitPort)] = true
		}
	}
	if doc.Router != nil {
		for _, r := range doc.Router.Routes {
			if onPanel(int(r.Port)) {
				wires[asic.PortID(r.Port)] = true
			}
		}
	}
	so.WirePorts = cluster.SortedKeys(wires)
	return so
}
