package experiments

import (
	"fmt"

	"dejavu/internal/core"
)

// Dvtel shows what the telemetry layer records on a live §5 deployment:
// in-band postcards stamping hop records into the SFC context, a decoded
// sample, and datapath counters that account for every packet the probe
// rounds put through. What telemetry costs per packet is timed by the
// repository benchmark (bench/, telemetry.overhead_pct), not here.
func Dvtel() (Table, error) {
	s, err := core.EdgeSoak(1, 0, 0)
	if err != nil {
		return Table{}, err
	}
	cfg, probes := s.Config, s.Probes
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
	// Every injected probe and every packet the controller reinjected
	// after a punt ends with exactly one recorded disposition.
	injected := probeRounds * len(probes)
	offered := uint64(injected + d.Controller.Stats().Reinjected)
	snap := d.Datapath.Snapshot()
	if got := snap.Completed(); got != offered {
		return Table{}, fmt.Errorf("dvtel: counters saw %d packets, offered %d", got, offered)
	}
	pcs := d.Postcards.Snapshot()
	sample := "-"
	if len(pcs) > 0 {
		sample = pcs[len(pcs)-1].String()
	}
	return Table{
		ID:     "dvtel",
		Title:  "In-band postcards and datapath counters (dvtel)",
		Header: []string{"run", "probes", "postcards", "truncated stamps"},
		Rows: [][]string{
			{"postcards on (§5 probes)", fmt.Sprint(injected),
				fmt.Sprint(d.Postcards.Total()), fmt.Sprint(d.Postcards.TruncatedStamps())},
		},
		Notes: []string{
			fmt.Sprintf("counters verified against offered load: %d packets completed", offered),
			fmt.Sprintf("p99 modelled latency %d ns, mean recirculations %.2f (from the probe run's histograms)",
				snap.Latency.Quantile(0.99), snap.Recirculation.Mean()),
			"sample postcard: " + sample,
			"postcards ride the 12-byte SFC context (Fig. 3): max 4 hops, extra stamps counted as truncated",
		},
	}, nil
}
