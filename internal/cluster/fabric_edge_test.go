package cluster

import (
	"strings"
	"testing"
	"time"

	"dejavu/internal/asic"
	"dejavu/internal/packet"
	"dejavu/internal/scenario"
)

// forwardAllTo programs every ingress pipeline of sw with a trivial
// stage that sends every packet out the given port — the minimal
// program for exercising fabric wiring without a full chain set.
func forwardAllTo(t *testing.T, sw *asic.Switch, out asic.PortID) {
	t.Helper()
	for p := 0; p < sw.Profile().Pipelines; p++ {
		if err := sw.InstallIngress(p, func(ctx *asic.Ctx) {
			ctx.Meta.OutPort = out
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFabricDuplexWiring wires two switches full duplex on the same
// port number (Connect is one-directional; called twice) and checks
// that the two directions are independent wires with independent
// health.
func TestFabricDuplexWiring(t *testing.T) {
	s := scenario.MustNew()
	f, err := NewFabric(s.Prof, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Connect(0, wirePort, 1, wirePort); err != nil {
		t.Fatal(err)
	}
	if err := f.Connect(1, wirePort, 0, wirePort); err != nil {
		t.Fatalf("duplex back-wire rejected: %v", err)
	}
	if !f.Wired(0, wirePort) || !f.Wired(1, wirePort) {
		t.Fatal("duplex wires not both registered")
	}

	forwardAllTo(t, f.Switches[0], wirePort)
	forwardAllTo(t, f.Switches[1], asic.PortID(1)) // fabric exit

	ft, err := f.Inject(0, scenario.PortClient, scenario.InternetBound())
	if err != nil {
		t.Fatal(err)
	}
	if ft.Dropped || len(ft.Out) != 1 || ft.OutSwitch[0] != 1 || ft.Out[0].Port != 1 {
		t.Fatalf("forwarded packet lost: %+v", ft)
	}
	if ft.Hops != 1 {
		t.Errorf("hops = %d, want 1", ft.Hops)
	}
	if ft.Latency < s.Prof.RecircOffChip {
		t.Errorf("latency %v does not cover the DAC hop (%v)", ft.Latency, s.Prof.RecircOffChip)
	}

	// Cutting 0->1 must not touch the reverse wire.
	if err := f.CutLink(0, wirePort); err != nil {
		t.Fatal(err)
	}
	if got := f.LinkHealth(1, wirePort); got != HealthAlive {
		t.Errorf("reverse wire health = %v after cutting forward wire", got)
	}
	ft, err = f.Inject(0, scenario.PortClient, scenario.InternetBound())
	if err != nil {
		t.Fatal(err)
	}
	if !ft.Dropped || len(ft.DropReasons) == 0 || !strings.Contains(ft.DropReasons[0], "cut") {
		t.Fatalf("cut wire did not attributably drop: %+v", ft)
	}
	if err := f.RestoreLink(0, wirePort); err != nil {
		t.Fatal(err)
	}
	ft, err = f.Inject(0, scenario.PortClient, scenario.InternetBound())
	if err != nil {
		t.Fatal(err)
	}
	if ft.Dropped || len(ft.Out) != 1 {
		t.Fatalf("restored wire did not carry traffic: %+v", ft)
	}
}

// TestFabricHopLimitBreaksWiringLoop builds a deliberate duplex loop —
// both switches forward everything back out the wire port — and checks
// that Inject terminates with the hop-budget error instead of spinning
// forever.
func TestFabricHopLimitBreaksWiringLoop(t *testing.T) {
	s := scenario.MustNew()
	f, err := NewFabric(s.Prof, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Connect(0, wirePort, 1, wirePort); err != nil {
		t.Fatal(err)
	}
	if err := f.Connect(1, wirePort, 0, wirePort); err != nil {
		t.Fatal(err)
	}
	forwardAllTo(t, f.Switches[0], wirePort)
	forwardAllTo(t, f.Switches[1], wirePort)

	ft, err := f.Inject(0, scenario.PortClient, scenario.InternetBound())
	if err == nil {
		t.Fatalf("wiring loop not detected: %+v", ft)
	}
	if !strings.Contains(err.Error(), "fabric hops") {
		t.Errorf("unexpected loop error: %v", err)
	}
	if ft == nil || ft.Hops <= maxFabricHops {
		t.Errorf("loop stopped before exhausting the hop budget: %+v", ft)
	}
}

// FuzzFabricInject drives arbitrary traffic kinds and injection ports
// through the pinned 2-switch deployment and checks FabricTrace
// self-consistency: every packet is delivered, punted or attributably
// dropped (never both delivered and dropped, never silently vanished),
// exits happen only on unwired ports, and Hops/Latency agree. The
// deployment is reconciled once per process; punts are drained unserved
// after every input, so no input sees state an earlier one left behind.
func FuzzFabricInject(f *testing.F) {
	s, fab, _ := deployAcrossTwoSwitches(f)
	f.Add(uint8(0), uint16(443), uint16(scenario.PortClient))
	f.Add(uint8(0), uint16(22), uint16(scenario.PortClient))
	f.Add(uint8(1), uint16(0), uint16(scenario.PortClient))
	f.Add(uint8(2), uint16(0), uint16(scenario.PortClient))
	f.Add(uint8(0), uint16(443), uint16(wirePort))
	f.Add(uint8(2), uint16(80), uint16(999))

	f.Fuzz(func(t *testing.T, kind uint8, dport uint16, inPort uint16) {
		defer func() {
			for _, sw := range fab.Switches {
				sw.DrainCPU()
			}
		}()
		var pkt *packet.Parsed
		switch kind % 3 {
		case 0:
			pkt = scenario.ClientTCP(dport)
		case 1:
			pkt = scenario.TenantBound()
		default:
			pkt = scenario.InternetBound()
		}
		ft, err := fab.Inject(0, asic.PortID(inPort), pkt)
		if err != nil {
			// Invalid injection ports are rejected up front; a healthy
			// deployment has no wiring loop to hit the hop budget.
			if strings.Contains(err.Error(), "fabric hops") {
				t.Fatalf("hop budget exhausted without a wiring loop: %v", err)
			}
			return
		}
		if len(ft.Out) != len(ft.OutSwitch) {
			t.Fatalf("Out/OutSwitch out of sync: %d vs %d", len(ft.Out), len(ft.OutSwitch))
		}
		if ft.Hops > maxFabricHops {
			t.Fatalf("hops %d over budget without an error", ft.Hops)
		}
		if ft.Latency < time.Duration(ft.Hops)*s.Prof.RecircOffChip {
			t.Fatalf("latency %v does not cover %d wire hop(s)", ft.Latency, ft.Hops)
		}
		// No §5 NF mirrors, so no copy of a dropped packet is delivered.
		if ft.Dropped && len(ft.Out) > 0 {
			t.Fatalf("packet both dropped and delivered: %+v", ft)
		}
		if ft.Dropped {
			attributed := len(ft.DropReasons) > 0
			for _, tr := range ft.PerSwitch {
				if tr.Dropped && tr.DropReason != "" {
					attributed = true
				}
			}
			if !attributed {
				t.Fatalf("drop without a reason: %+v", ft)
			}
		}
		if !ft.Dropped && len(ft.Out) == 0 && len(ft.CPUSwitch) == 0 {
			t.Fatalf("packet silently vanished: %+v", ft)
		}
		for i, out := range ft.Out {
			if fab.Wired(ft.OutSwitch[i], out.Port) {
				t.Fatalf("fabric exit on a wired port: switch %d port %d", ft.OutSwitch[i], out.Port)
			}
		}
	})
}
