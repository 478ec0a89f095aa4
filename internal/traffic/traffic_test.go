package traffic

import (
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/packet"
	"dejavu/internal/pktgen"
)

// templates draws n seed-1 pktgen flows as packets.
func templates(n int) []packet.Parsed {
	return flowPackets(1, n)
}

// flowPackets draws n pktgen flows under seed as packets.
func flowPackets(seed int64, n int) []packet.Parsed {
	gen := pktgen.New(pktgen.Config{Seed: seed})
	flows := gen.Flows(n)
	out := make([]packet.Parsed, len(flows))
	for i, f := range flows {
		gen.PacketInto(f, &out[i])
	}
	return out
}

// run offers n packets, round-robin over 64 flows of seed, to sw on
// port in through InjectQuiet one at a time, and tallies the outcome
// the way InjectQuietBatch does.
func run(sw *asic.Switch, in asic.PortID, seed int64, n int) asic.BatchResult {
	tmpl := flowPackets(seed, 64)
	var br asic.BatchResult
	for i := 0; i < n; i++ {
		q, err := sw.InjectQuiet(in, tmpl[i%len(tmpl)].Clone())
		br.Injected++
		switch {
		case err != nil:
			br.Errors++
		case q.Dropped:
			br.Dropped++
		case q.Emitted > 0:
			br.Delivered++
		}
		br.ToCPU += q.ToCPU
		br.Emitted += q.Emitted
		br.Resubmissions += q.Resubmissions
		br.Recirculations += q.Recirculations
		br.Latency += q.Latency
	}
	return br
}

// burst offers the same packets as run, in InjectQuietBatch bursts of
// size batch; the last burst carries the remainder.
func burst(sw *asic.Switch, in asic.PortID, seed int64, n, batch int) asic.BatchResult {
	tmpl := flowPackets(seed, 64)
	var sum asic.BatchResult
	for off := 0; off < n; off += batch {
		pkts := make([]*packet.Parsed, min(batch, n-off))
		for i := range pkts {
			pkts[i] = tmpl[(off+i)%len(tmpl)].Clone()
		}
		br := sw.InjectQuietBatch(in, pkts)
		sum.Injected += br.Injected
		sum.Delivered += br.Delivered
		sum.Dropped += br.Dropped
		sum.ToCPU += br.ToCPU
		sum.Errors += br.Errors
		sum.Emitted += br.Emitted
		sum.Resubmissions += br.Resubmissions
		sum.Recirculations += br.Recirculations
		sum.Latency += br.Latency
	}
	return sum
}

func TestRunDeliversEverything(t *testing.T) {
	sw := NewBenchSwitch(asic.Wedge100B(), ForwarderOpts{})
	res := run(sw, 0, 1, 10_000)
	if res.Injected != 10_000 || res.Delivered != res.Injected {
		t.Errorf("delivered %d of %d (dropped=%d errors=%d cpu=%d)",
			res.Delivered, res.Injected, res.Dropped, res.Errors, res.ToCPU)
	}
	if rx := sw.Stats(0).RxPackets.Load(); rx != 10_000 {
		t.Errorf("port 0 RxPackets = %d, want 10000", rx)
	}
}

// TestRunCountsRecirculations: ForwarderOpts{Recircs: k} loops every
// packet exactly k times through its pipeline's recirculation port
// before it leaves.
func TestRunCountsRecirculations(t *testing.T) {
	for _, k := range []int{0, 1, 3} {
		sw := NewBenchSwitch(asic.Wedge100B(), ForwarderOpts{Recircs: k})
		for i, tmpl := range templates(16) {
			q, err := sw.InjectQuiet(0, &tmpl)
			if err != nil {
				t.Fatal(err)
			}
			if q.Dropped || q.Emitted != 1 || q.Recirculations != k {
				t.Fatalf("k=%d packet %d: %+v, want delivered after %d recirculations", k, i, q, k)
			}
		}
		res := run(sw, 0, 1, 500)
		if res.Delivered != 500 {
			t.Fatalf("k=%d: delivered %d, want 500", k, res.Delivered)
		}
		if got, want := res.Recirculations, 500*k; got != want {
			t.Errorf("k=%d: %d recirculations, want %d", k, got, want)
		}
	}
}

// TestRunMultiPortSpreadsPipelines: NewBenchSwitch installs the
// forwarder on every pipeline, so a port of each one forwards — with
// forced recirculations too, which stay inside the port's pipeline.
func TestRunMultiPortSpreadsPipelines(t *testing.T) {
	prof := asic.Wedge100B()
	for _, k := range []int{0, 2} {
		sw := NewBenchSwitch(prof, ForwarderOpts{Recircs: k})
		for pl := 0; pl < prof.Pipelines; pl++ {
			port := asic.PortID(pl * prof.PortsPerPipeline)
			res := run(sw, port, 7, 500)
			if res.Delivered != 500 || res.Recirculations != 500*k {
				t.Fatalf("k=%d port %d: %+v, want 500 delivered after %d recirculations", k, port, res, 500*k)
			}
			if rx := sw.Stats(port).RxPackets.Load(); rx != 500 {
				t.Errorf("k=%d port %d RxPackets = %d, want 500", k, port, rx)
			}
			if k > 0 {
				if rx := sw.Stats(asic.RecircPort(pl)).RxPackets.Load(); rx != uint64(500*k) {
					t.Errorf("k=%d pipeline %d recirculation port saw %d, want %d", k, pl, rx, 500*k)
				}
			}
		}
	}
}

// TestRunBatchMatchesSingle: the same packets yield identical
// delivered / dropped / recirculated tallies whether they go through
// InjectQuiet one by one or through InjectQuietBatch bursts.
func TestRunBatchMatchesSingle(t *testing.T) {
	for _, recircs := range []int{0, 2} {
		single := run(NewBenchSwitch(asic.Wedge100B(), ForwarderOpts{Recircs: recircs}), 0, 5, 10_001)
		batch := burst(NewBenchSwitch(asic.Wedge100B(), ForwarderOpts{Recircs: recircs}), 0, 5, 10_001, 64)
		if single != batch {
			t.Errorf("recircs=%d: tallies diverge:\nsingle %+v\nbatch  %+v", recircs, single, batch)
		}
	}
}

// TestRunBatchUnevenSplit drives a packet count that is not a multiple
// of the burst size.
func TestRunBatchUnevenSplit(t *testing.T) {
	res := burst(NewBenchSwitch(asic.Wedge100B(), ForwarderOpts{}), 0, 1, 1_003, 64)
	if res.Injected != 1_003 || res.Delivered != 1_003 {
		t.Errorf("injected=%d delivered=%d, want 1003/1003", res.Injected, res.Delivered)
	}
}

// TestRunRejectsBadPort: the CPU port and a loopback port refuse
// injected traffic, singly and in bursts.
func TestRunRejectsBadPort(t *testing.T) {
	sw := NewBenchSwitch(asic.Wedge100B(), ForwarderOpts{})
	if err := sw.SetLoopback(3, asic.LoopbackOnChip); err != nil {
		t.Fatal(err)
	}
	for _, port := range []asic.PortID{asic.PortCPU, 3} {
		if _, err := sw.InjectQuiet(port, templates(1)[0].Clone()); err == nil {
			t.Errorf("port %d accepted a packet", port)
		}
		if br := sw.InjectQuietBatch(port, []*packet.Parsed{templates(1)[0].Clone()}); br.Err == nil || br.Delivered != 0 {
			t.Errorf("port %d accepted a burst: %+v", port, br)
		}
	}
}

func TestRunCountsDrops(t *testing.T) {
	// A pipeline that never chooses an egress port drops everything.
	res := run(asic.New(asic.Wedge100B()), 0, 1, 300)
	if res.Dropped != 300 || res.Delivered != 0 || res.Errors != 0 {
		t.Errorf("dropped=%d delivered=%d errors=%d, want 300/0/0", res.Dropped, res.Delivered, res.Errors)
	}
}

// TestForwarderDrops: a TTL-0 IPv4 packet and a non-IPv4 packet are
// dropped, after any forced recirculations.
func TestForwarderDrops(t *testing.T) {
	ttl0 := templates(1)[0]
	ttl0.IPv4.TTL = 0
	arp := packet.NewARP(packet.ARPRequest, packet.MAC{2, 0, 0, 0, 0, 9}, packet.IP4{10, 0, 0, 1},
		packet.MAC{}, packet.IP4{10, 0, 0, 2})
	for _, k := range []int{0, 2} {
		sw := NewBenchSwitch(asic.Wedge100B(), ForwarderOpts{Recircs: k})
		for name, p := range map[string]*packet.Parsed{"ttl 0": &ttl0, "arp": arp} {
			res, err := sw.InjectQuiet(0, p.Clone())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Dropped || res.Emitted != 0 || res.Recirculations != k {
				t.Errorf("k=%d %s: %+v, want dropped after %d recirculations", k, name, res, k)
			}
		}
	}
}

func TestForwarderDeterministicSpread(t *testing.T) {
	// The forwarder must spread flows across several egress ports —
	// otherwise the "parallel" benchmark serializes on one port's
	// counters.
	prof := asic.Wedge100B()
	sw := NewBenchSwitch(prof, ForwarderOpts{})
	gen := pktgen.New(pktgen.Config{Seed: 42})
	seen := map[asic.PortID]bool{}
	for _, f := range gen.Flows(64) {
		var p packet.Parsed
		gen.PacketInto(f, &p)
		tr, err := sw.Inject(0, &p)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Dropped {
			t.Fatalf("forwarder dropped %v: %s", f.Tuple, tr.DropReason)
		}
		for _, o := range tr.Out {
			seen[o.Port] = true
		}
	}
	if len(seen) < 8 {
		t.Errorf("64 flows hit only %d egress ports", len(seen))
	}
}
