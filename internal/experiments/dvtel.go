package experiments

import (
	"fmt"
	"time"

	"dejavu/internal/asic"
	"dejavu/internal/core"
	"dejavu/internal/packet"
	"dejavu/internal/pktgen"
	"dejavu/internal/telemetry"
	"dejavu/internal/traffic"
)

// Dvtel measures what the telemetry layer costs and what it buys: the
// InjectQuiet hot path with datapath counters off versus on (the
// ISSUE's <=10% overhead budget), the same with in-band postcards
// stamping hop records into the SFC context, and a postcard trace
// decoded from a live §5 deployment to show the counters are not just
// cheap but right.
func Dvtel() (Table, error) {
	prof := asic.Wedge100B()
	const packets = 50_000

	// 1. Counters off vs on over the bench forwarder: one goroutine
	// injects the packets round-robin over 64 seed-1 flows through
	// InjectQuiet on port 0.
	gen := pktgen.New(pktgen.Config{Seed: 1})
	flows := gen.Flows(64)
	templates := make([]packet.Parsed, len(flows))
	for i, f := range flows {
		gen.PacketInto(f, &templates[i])
	}
	nsPerPkt := func(dp *telemetry.Datapath) (float64, error) {
		sw := traffic.NewBenchSwitch(prof, traffic.ForwarderOpts{})
		if dp != nil {
			sw.SetTelemetry(dp)
		}
		var scratch packet.Parsed
		start := time.Now()
		for i := 0; i < packets; i++ {
			scratch.CopyFrom(&templates[i%len(templates)])
			if _, err := sw.InjectQuiet(0, &scratch); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / packets, nil
	}
	off, err := nsPerPkt(nil)
	if err != nil {
		return Table{}, err
	}
	dp := telemetry.NewDatapath(prof.Pipelines)
	on, err := nsPerPkt(dp)
	if err != nil {
		return Table{}, err
	}
	snap := dp.Snapshot()
	if got := snap.Completed(); got != uint64(packets) {
		return Table{}, fmt.Errorf("dvtel: counters saw %d packets, offered %d", got, packets)
	}

	// 2. Postcards on, over the real §5 deployment (the bench forwarder
	// carries no SFC header, so postcards need the composed chains).
	cfg, probes, err := core.EdgeChaosConfig()
	if err != nil {
		return Table{}, err
	}
	cfg.Telemetry = true
	cfg.Postcards = true
	d, err := core.Deploy(cfg)
	if err != nil {
		return Table{}, err
	}
	const probeRounds = 200
	for i := 0; i < probeRounds; i++ {
		for _, pr := range probes {
			if _, err := d.Inject(pr.Port, pr.Packet()); err != nil {
				return Table{}, fmt.Errorf("dvtel probe %s: %w", pr.Name, err)
			}
		}
	}
	pcs := d.Postcards.Snapshot()
	sample := "-"
	if len(pcs) > 0 {
		sample = pcs[len(pcs)-1].String()
	}

	overhead := (on - off) / off * 100
	row := func(mode string, ns float64) []string {
		return []string{mode, fmt.Sprintf("%d", packets), fmt.Sprintf("%.0f", ns), fmt.Sprintf("%.3f", 1e3/ns)}
	}
	return Table{
		ID:     "dvtel",
		Title:  "Telemetry overhead and in-band postcards (dvtel)",
		Header: []string{"mode", "packets", "ns/pkt", "Mpps"},
		Rows: [][]string{
			row("counters off", off),
			row("counters on", on),
			{"postcards on (§5 probes)", fmt.Sprintf("%d", probeRounds*len(probes)),
				fmt.Sprintf("%d postcards", d.Postcards.Total()),
				fmt.Sprintf("%d truncated stamps", d.Postcards.TruncatedStamps())},
		},
		Notes: []string{
			fmt.Sprintf("counter overhead: %.1f%% ns/pkt (budget: <=10%%); counters verified against offered load", overhead),
			fmt.Sprintf("p99 modelled latency %d ns, mean recirculations %.2f (from the on-run histograms)",
				snap.Latency.Quantile(0.99), snap.Recirculation.Mean()),
			"sample postcard: " + sample,
			"postcards ride the 12-byte SFC context (Fig. 3): max 4 hops, extra stamps counted as truncated",
		},
	}, nil
}
