package core

import (
	"bytes"
	"testing"

	"dejavu/internal/packet"
	"dejavu/internal/scenario"
	"dejavu/internal/telemetry"
)

// TestDeployTelemetryCounters: a telemetry-enabled deployment must
// count injected scenario traffic into the datapath aggregate and the
// composer's NF/path counters, and both must agree on volume.
func TestDeployTelemetryCounters(t *testing.T) {
	cfg := edgeConfig()
	cfg.Telemetry = true
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Datapath == nil {
		t.Fatal("Telemetry config did not attach a Datapath")
	}
	const n = 30
	for i := 0; i < n; i++ {
		if _, err := d.Inject(scenario.PortClient, scenario.InternetBound()); err != nil {
			t.Fatal(err)
		}
	}
	snap := d.Datapath.Snapshot()
	if snap.Completed() != n || snap.Delivered != n {
		t.Errorf("datapath: completed=%d delivered=%d, want %d", snap.Completed(), snap.Delivered, n)
	}
	// Fig. 9: every chain recirculates exactly once.
	if snap.Recirculation.Quantile(0.99) != 1 {
		t.Errorf("recirc p99 = %d, want 1", snap.Recirculation.Quantile(0.99))
	}
	_, paths := d.Telemetry().Snapshot()
	var pathTotal uint64
	for _, pc := range paths {
		pathTotal += pc.Packets
	}
	if pathTotal != n {
		t.Errorf("chain counters saw %d packets, want %d", pathTotal, n)
	}
}

// TestDeployPostcardsEndToEnd drives a packet through a full chain and
// checks the decoded hop trace: stamps accumulate across the
// recirculation, the trace is recorded at chain exit, and the hop keys
// are stripped before the packet leaves on the wire.
func TestDeployPostcardsEndToEnd(t *testing.T) {
	cfg := edgeConfig()
	cfg.Postcards = true
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Postcards == nil {
		t.Fatal("Postcards config did not attach a log")
	}
	tr, err := d.Inject(scenario.PortClient, scenario.InternetBound())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped || len(tr.Out) != 1 {
		t.Fatalf("basic path broken: dropped=%v out=%+v", tr.Dropped, tr.Out)
	}
	if d.Postcards.Total() != 1 {
		t.Fatalf("recorded %d postcards, want 1", d.Postcards.Total())
	}
	pc := d.Postcards.Snapshot()[0]
	hops := pc.Trace()
	if len(hops) == 0 {
		t.Fatal("postcard has no hops")
	}
	// The first stamped hop is always the classifying ingress pass.
	if first := hops[0]; first.Dir != telemetry.HopIngress || first.Pipeline != 0 || first.Pass != 1 {
		t.Errorf("first hop = %+v, want ingress 0 pass 1", first)
	}
	// Hop keys never leave on the wire: either the SFC header was
	// popped entirely or its context carries no 0xF0.. keys.
	out := tr.Out[0].Pkt
	if out.Valid(packet.HdrSFC) {
		for i := uint8(0); i < telemetry.MaxHops; i++ {
			if _, ok := out.SFC.LookupContext(telemetry.KeyHop0 + i); ok {
				t.Errorf("hop key %#x leaked onto the wire", telemetry.KeyHop0+i)
			}
		}
	}
}

// TestRegisterMetricsExposition: the full deployment-level registry —
// datapath, NF/path counters, postcards, port stats — must render a
// parseable exposition containing every documented family.
func TestRegisterMetricsExposition(t *testing.T) {
	cfg := edgeConfig()
	cfg.Telemetry = true
	cfg.Postcards = true
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := d.Inject(scenario.PortClient, scenario.TenantBound()); err != nil {
			t.Fatal(err)
		}
	}
	// A new VIP flow offered to the bare switch stays punted: nobody polls.
	if tr, err := d.Switch.Inject(scenario.PortClient, scenario.ClientTCP(443)); err != nil || len(tr.CPU) != 1 {
		t.Fatalf("new flow not punted: %+v %v", tr, err)
	}
	reg := telemetry.NewRegistry()
	d.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("deployment exposition does not parse: %v", err)
	}
	byName := make(map[string]telemetry.Family)
	for _, f := range fams {
		byName[f.Name] = f
	}
	for _, name := range []string{
		"dejavu_pipelet_passes_total",
		"dejavu_packets_total",
		"dejavu_nf_executions_total",
		"dejavu_chain_packets_total",
		"dejavu_postcards_total",
		"dejavu_port_packets_total",
		"dejavu_port_up",
		"dejavu_switch_drops_total",
		"dejavu_cpu_queue_depth",
	} {
		if _, ok := byName[name]; !ok {
			t.Errorf("family %s missing from deployment exposition", name)
		}
	}
	var delivered float64
	for _, s := range byName["dejavu_packets_total"].Samples {
		if s.Labels == `outcome="delivered"` {
			delivered = s.Value
		}
	}
	if delivered != 10 {
		t.Errorf("delivered = %v, want 10", delivered)
	}
	if q := byName["dejavu_cpu_queue_depth"]; q.Kind != telemetry.KindGauge || len(q.Samples) != 1 || q.Samples[0].Value != 1 {
		t.Errorf("cpu_queue_depth = %+v, want a gauge reading the one waiting punt", q)
	}
	if v := byName["dejavu_postcards_total"].Samples[0].Value; v != 10 {
		t.Errorf("postcards_total = %v, want 10", v)
	}
}
