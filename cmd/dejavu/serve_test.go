package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"dejavu/internal/core"
	"dejavu/internal/telemetry"
)

// singleSwitchFamilies is every family `dejavu serve` exposes for the
// reference scenario without -fabric.
var singleSwitchFamilies = []string{
	"dejavu_chain_packets_total", "dejavu_cpu_queue_depth", "dejavu_drops_total",
	"dejavu_emitted_packets_total", "dejavu_nf_executions_total", "dejavu_packet_latency_ns",
	"dejavu_packet_recirculations", "dejavu_packets_total", "dejavu_pipelet_passes_total",
	"dejavu_port_bytes_total", "dejavu_port_packets_total", "dejavu_port_up",
	"dejavu_rebuild_build_ns_total", "dejavu_rebuild_builds_total", "dejavu_rebuild_delta_entries_total",
	"dejavu_rebuild_last_build_ns", "dejavu_rebuild_program_swaps_total", "dejavu_rebuild_stage_cache_total",
	"dejavu_rebuild_swaps_total", "dejavu_recirculations_total", "dejavu_resubmissions_total",
	"dejavu_switch_drops_total",
}

// fabricFamilies is what -fabric adds once a soak has run.
var fabricFamilies = []string{
	"dejavu_fabric_chains_blackholed", "dejavu_fabric_converge_ticks_total", "dejavu_fabric_convergences_total",
	"dejavu_fabric_last_converge_ticks", "dejavu_fabric_place_cross_hops", "dejavu_fabric_place_path_length",
	"dejavu_fabric_place_replacements_total", "dejavu_fabric_reconciles_total", "dejavu_fabric_replacements_total",
	"dejavu_fabric_switches",
}

// TestServeRegistryNamesEachFamilyOnce renders serve's registry with and
// without a fabric soak's set: the exposition parses, declares every
// family once and repeats no series, and the families are exactly the
// single-switch set plus, with -fabric, the fabric set.
func TestServeRegistryNamesEachFamilyOnce(t *testing.T) {
	d, err := deployObserved("manual", false)
	if err != nil {
		t.Fatal(err)
	}
	fabric := telemetry.NewControl()
	s, err := core.EdgeSoak(1, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.Telemetry = fabric
	if _, err := core.RunSoak(s); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		fabric *telemetry.Control
		want   []string
	}{
		{"single switch", nil, singleSwitchFamilies},
		{"with -fabric", fabric, append(slices.Clone(singleSwitchFamilies), fabricFamilies...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := metricsRegistry(d, tc.fabric).WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			seen := make(map[string]bool)
			for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
				if strings.HasPrefix(line, "# HELP ") {
					continue
				}
				key := line // a TYPE line names its family; a sample line is its series
				if !strings.HasPrefix(line, "#") {
					key = line[:strings.LastIndexByte(line, ' ')]
				}
				if seen[key] {
					t.Errorf("exposition repeats %q", key)
				}
				seen[key] = true
			}
			fams, err := telemetry.ParsePrometheus(&buf)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, f := range fams {
				names = append(names, f.Name)
			}
			want := slices.Clone(tc.want)
			slices.Sort(want)
			if !slices.Equal(names, want) {
				t.Errorf("families:\n got %v\nwant %v", names, want)
			}
		})
	}
}
