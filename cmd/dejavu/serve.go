package main

import (
	"cmp"
	"flag"
	"fmt"
	"net/http"
	"time"

	"dejavu/internal/cluster"
	"dejavu/internal/core"
	"dejavu/internal/scenario"
	"dejavu/internal/telemetry"
)

// deployObserved deploys deployConfig's deployment with the dvtel
// telemetry counters always attached (serve and top exist to read
// them) and postcards optionally on.
func deployObserved(optimizer string, postcards bool) (*core.Deployment, error) {
	cfg, err := deployConfig(optimizer)
	if err != nil {
		return nil, err
	}
	cfg.Telemetry = true
	cfg.Postcards = cfg.Postcards || postcards
	return core.Deploy(cfg)
}

// runServe deploys the configured scenario and serves its telemetry
// over HTTP: Prometheus text exposition on /metrics, runtime profiles
// on /debug/pprof/, and a liveness probe on /healthz. With -demo the
// scenario's sample flows are injected continuously so every counter
// moves while you watch.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	metrics := fs.String("metrics", ":9090", "listen address for /metrics, /healthz and /debug/pprof")
	optimizer := fs.String("optimizer", "manual", "manual|naive|greedy|anneal|exhaustive")
	postcards := fs.Bool("postcards", false, "enable in-band postcard telemetry")
	demo := fs.Bool("demo", false, "continuously inject scenario sample traffic (ignored with -config)")
	fabric := fs.Bool("fabric", false, "run a continuous fabric chaos soak and export dejavu_fabric_* metrics")
	fs.Parse(args)

	d, err := deployObserved(*optimizer, *postcards)
	if err != nil {
		return err
	}
	var ftel *telemetry.Control
	if *fabric {
		ftel = telemetry.NewControl()
		go fabricSoakLoop(ftel)
	}
	reg := metricsRegistry(d, ftel)
	if *demo && configPath == "" {
		go demoTraffic(d)
	}
	fmt.Printf("dejavu: serving telemetry on %s (/metrics, /healthz, /debug/pprof/)\n", *metrics)
	return http.ListenAndServe(*metrics, telemetry.NewMux(reg))
}

// metricsRegistry is what serve exposes: every metric source of d and,
// when fabric is non-nil, the set the background fabric soaks record
// into.
func metricsRegistry(d *core.Deployment, fabric *telemetry.Control) *telemetry.Registry {
	reg := telemetry.NewRegistry()
	d.RegisterMetrics(reg)
	if fabric != nil {
		reg.Register(fabric)
	}
	return reg
}

// fabricSoakLoop runs seeded 3-switch edge-cloud soaks back to back,
// each fabric deployment recording its rounds into ftel, so the
// exported dejavu_fabric_* families (switches alive, re-placements,
// convergence ticks) stay live.
func fabricSoakLoop(ftel *telemetry.Control) {
	for seed := int64(1); ; seed++ {
		s, err := core.EdgeSoak(seed, 0, 3)
		if err == nil {
			s.Telemetry = ftel
			_, err = core.RunSoak(s)
		}
		if err != nil {
			return
		}
		time.Sleep(100 * time.Millisecond) //dv:allow detrand: paces a live demo between soaks; each soak is seeded and never reads the clock
	}
}

// demoTraffic replays the scenario's §5 probes forever so the served
// counters, histograms and postcards stay live.
func demoTraffic(d *core.Deployment) {
	probes := scenario.Probes()
	for i := 0; ; i++ {
		pr := probes[i%len(probes)]
		if _, err := d.Inject(pr.Port, pr.Packet()); err != nil {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// runTop prints a one-shot telemetry snapshot: either scraped from a
// running `dejavu serve` (-addr) or measured locally by deploying the
// configured scenario and pushing a burst of sample traffic through it.
func runTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "", "scrape a running serve instance (host:port) instead of measuring locally")
	optimizer := fs.String("optimizer", "manual", "manual|naive|greedy|anneal|exhaustive")
	packets := fs.Int("packets", 300, "sample packets to inject for a local snapshot")
	fs.Parse(args)

	if *addr != "" {
		return topScrape(*addr)
	}
	return topLocal(*optimizer, *packets)
}

// topScrape fetches and re-renders another process's /metrics.
func topScrape(addr string) error {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("top: %s returned %s", addr, resp.Status)
	}
	fams, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		return err
	}
	for _, fam := range fams {
		fmt.Printf("%s (%s)\n", fam.Name, fam.Kind)
		for _, s := range fam.Samples {
			label := cmp.Or(s.Labels, "-")
			if s.Hist != nil {
				fmt.Printf("  %-40s count=%d sum=%d p50=%d p99=%d\n",
					label, s.Hist.Count, s.Hist.Sum, s.Hist.Quantile(0.5), s.Hist.Quantile(0.99))
				continue
			}
			fmt.Printf("  %-40s %.0f\n", label, s.Value)
		}
	}
	return nil
}

// topLocal deploys, injects a burst of scenario traffic, and prints the
// resulting counters.
func topLocal(optimizer string, packets int) error {
	d, err := deployObserved(optimizer, true)
	if err != nil {
		return err
	}
	probes := scenario.Probes()
	for i := 0; i < packets; i++ {
		pr := probes[i%len(probes)]
		if _, err := d.Inject(pr.Port, pr.Packet()); err != nil {
			return fmt.Errorf("top: inject: %w", err)
		}
	}

	snap := d.Datapath.Snapshot()
	fmt.Printf("packets: %d completed (%d delivered, %d dropped, %d to CPU, %d refused)\n",
		snap.Completed(), snap.Delivered, snap.Dropped, snap.ToCPU, snap.Refused)
	fmt.Printf("latency: p50=%d ns p99=%d ns mean=%.0f ns\n",
		snap.Latency.Quantile(0.5), snap.Latency.Quantile(0.99), snap.Latency.Mean())
	fmt.Printf("recirculations: mean=%.2f per packet\n", snap.Recirculation.Mean())
	for p := 0; p < snap.Pipelines; p++ {
		fmt.Printf("pipeline %d: %d ingress passes, %d egress passes, %d recircs, %d resubmits\n",
			p, snap.IngressPasses[p], snap.EgressPasses[p], snap.Recircs[p], snap.Resubmits[p])
	}
	if len(snap.Drops) > 0 {
		fmt.Println("drops:")
		for _, r := range cluster.SortedKeys(snap.Drops) {
			fmt.Printf("  %-20s %d\n", r, snap.Drops[r])
		}
	}

	nfs, paths := d.Telemetry().Snapshot()
	fmt.Println("chains:")
	for _, pc := range paths {
		fmt.Printf("  path %-5d %d packets\n", pc.Path, pc.Packets)
	}
	fmt.Println("nfs:")
	for _, nc := range nfs {
		fmt.Printf("  %-12s %d executions\n", nc.Name, nc.Executions)
	}

	if d.Postcards != nil {
		pcs := d.Postcards.Snapshot()
		fmt.Printf("postcards: %d recorded, %d truncated stamps\n",
			d.Postcards.Total(), d.Postcards.TruncatedStamps())
		for i, pc := range pcs {
			if i >= 3 {
				fmt.Printf("  ... %d more\n", len(pcs)-3)
				break
			}
			fmt.Printf("  %s\n", pc)
		}
	}
	return nil
}
