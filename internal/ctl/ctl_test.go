package ctl

import (
	"errors"
	"strings"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/compose"
	"dejavu/internal/mau"
	"dejavu/internal/nf"
	"dejavu/internal/packet"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
)

// deployed builds the scenario switch with a controller.
func deployed(t testing.TB) (*scenario.Scenario, *asic.Switch, *Controller) {
	t.Helper()
	s := scenario.MustNew()
	sw := installed(t, s, s.Chains, s.NFs)
	return s, sw, New(sw, s.NFs)
}

// installed composes the scenario's pipelet programs for a chain set and
// NF list over compose's Assemble and installs them on a fresh switch.
// The build pipeline does this in production, but this package's tests
// cannot import it (pipeline imports lint, which imports ctl).
func installed(t testing.TB, s *scenario.Scenario, chains []route.Chain, nfs nf.List) *asic.Switch {
	t.Helper()
	c, err := compose.New(s.Prof, chains, s.Placement, nfs)
	if err != nil {
		t.Fatal(err)
	}
	ingress := make([]asic.StageFunc, s.Prof.Pipelines)
	egress := make([]asic.StageFunc, s.Prof.Pipelines)
	for pipe := range ingress {
		ingress[pipe] = c.FuncFor(asic.PipeletID{Pipeline: pipe, Dir: asic.Ingress})
		egress[pipe] = c.FuncFor(asic.PipeletID{Pipeline: pipe, Dir: asic.Egress})
	}
	sw := asic.New(s.Prof)
	if err := c.Assemble(nil, nil, nil, ingress, egress).InstallOn(sw); err != nil {
		t.Fatal(err)
	}
	return sw
}

func TestSessionLearningAndReinject(t *testing.T) {
	s, sw, ctrl := deployed(t)

	// First packet misses the LB session table and is punted.
	tr, err := sw.Inject(scenario.PortClient, scenario.ClientTCP(443))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.CPU) != 1 {
		t.Fatalf("expected a punt, got trace %+v", tr)
	}

	// The controller installs the session and reinjects: the reinjected
	// packet must complete the chain.
	traces, err := ctrl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("reinjected %d packets, want 1", len(traces))
	}
	out := traces[0]
	if out.Dropped || len(out.Out) != 1 || out.Out[0].Port != scenario.PortBackends {
		t.Fatalf("reinjected packet trace: dropped=%v out=%+v", out.Dropped, out.Out)
	}
	if s.LB.Sessions() != 1 {
		t.Errorf("Sessions = %d, want 1", s.LB.Sessions())
	}
	st := ctrl.Stats()
	if st.SessionsInstalled != 1 || st.Reinjected != 1 {
		t.Errorf("Stats = %+v", st)
	}

	// Subsequent packets of the flow hit in the data plane: no punt.
	tr2, err := sw.Inject(scenario.PortClient, scenario.ClientTCP(443))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2.CPU) != 0 || len(tr2.Out) != 1 {
		t.Errorf("second packet punted or lost: %+v", tr2)
	}
}

func TestPollIdempotentWhenQuiet(t *testing.T) {
	_, _, ctrl := deployed(t)
	traces, err := ctrl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 0 {
		t.Errorf("Poll on empty queue reinjected %d packets", len(traces))
	}
}

// withSessions builds the scenario switch with a controller, its load
// balancer replaced by one whose session table holds capacity entries.
func withSessions(t *testing.T, capacity int) (*asic.Switch, *Controller) {
	t.Helper()
	s := scenario.MustNew()
	lb := nf.NewLoadBalancer(capacity)
	if err := lb.AddVIP(scenario.VIP, []packet.IP4{scenario.Backend1, scenario.Backend2}); err != nil {
		t.Fatal(err)
	}
	for i, f := range s.NFs {
		if f == nf.NF(s.LB) {
			s.NFs[i] = lb
		}
	}
	sw := installed(t, s, s.Chains, s.NFs)
	return sw, New(sw, s.NFs)
}

// TestPollHandlesEveryDrainedPacket: a punt the controller cannot
// repair must not take the packets drained behind it with it. With a
// two-entry session table, a burst of six new VIP flows and one ARP
// gives two reinjections, four failures and one unknown punt; nothing
// stays queued.
func TestPollHandlesEveryDrainedPacket(t *testing.T) {
	sw, ctrl := withSessions(t, 2)
	for i := 0; i < 6; i++ {
		pkt := packet.NewTCP(packet.TCPOpts{
			SrcMAC: scenario.ClientMAC, DstMAC: scenario.GatewayMAC,
			Src: scenario.ClientIP, Dst: scenario.VIP,
			SrcPort: uint16(33000 + i), DstPort: 443,
		})
		if tr, err := sw.Inject(scenario.PortClient, pkt); err != nil || len(tr.CPU) != 1 {
			t.Fatalf("flow %d not punted: %+v %v", i, tr, err)
		}
	}
	arp := packet.NewARP(packet.ARPRequest, scenario.ClientMAC, scenario.ClientIP, packet.MAC{}, scenario.VIP)
	if _, err := sw.Inject(scenario.PortClient, arp); err != nil {
		t.Fatal(err)
	}

	traces, err := ctrl.Poll()
	if len(traces) != 2 {
		t.Errorf("reinjected %d packets, want 2", len(traces))
	}
	for _, tr := range traces {
		if tr.Dropped || len(tr.Out) != 1 || tr.Out[0].Port != scenario.PortBackends {
			t.Errorf("reinjected packet did not complete the chain: %+v", tr)
		}
	}
	if err == nil || strings.Count(err.Error(), "session install") != 4 {
		t.Errorf("Poll error = %v, want 4 joined session-install failures", err)
	}
	st := ctrl.Stats()
	if st.SessionsInstalled != 2 || st.Reinjected != 2 || st.Failed != 4 || st.Unknown != 1 {
		t.Errorf("Stats = %+v, want 2 installed, 2 reinjected, 4 failed, 1 unknown", st)
	}
	if left := sw.DrainCPU(); len(left) != 0 {
		t.Errorf("%d packets left in the CPU queue", len(left))
	}
	if traces, err := ctrl.Poll(); len(traces) != 0 || err != nil {
		t.Errorf("second Poll returned %d traces, %v", len(traces), err)
	}
}

// TestTableFullIsTyped: a punt whose session a full table refuses fails
// with an error that matches mau.ErrTableFull through the controller's
// wrapping, and is counted as TableFull inside Failed.
func TestTableFullIsTyped(t *testing.T) {
	sw, ctrl := withSessions(t, 1)
	for i := 0; i < 2; i++ {
		pkt := packet.NewTCP(packet.TCPOpts{
			SrcMAC: scenario.ClientMAC, DstMAC: scenario.GatewayMAC,
			Src: scenario.ClientIP, Dst: scenario.VIP,
			SrcPort: uint16(33000 + i), DstPort: 443,
		})
		if tr, err := sw.Inject(scenario.PortClient, pkt); err != nil || len(tr.CPU) != 1 {
			t.Fatalf("flow %d not punted: %+v %v", i, tr, err)
		}
		traces, err := ctrl.Poll()
		if full := errors.Is(err, mau.ErrTableFull); full != (i == 1) || len(traces) != 1-i {
			t.Errorf("flow %d: %d reinjected, err %v; want ErrTableFull from the second only", i, len(traces), err)
		}
	}
	if st := ctrl.Stats(); st.SessionsInstalled != 1 || st.Failed != 1 || st.TableFull != 1 {
		t.Errorf("Stats = %+v, want 1 installed, 1 failed, 1 table full", st)
	}
}

func TestUnknownPuntCounted(t *testing.T) {
	_, sw, ctrl := deployed(t)
	// ARP reaches the router and is punted; the controller has no
	// handler for it (no NAT in this chain, dst not a VIP).
	arp := packet.NewARP(packet.ARPRequest, scenario.ClientMAC, scenario.ClientIP, packet.MAC{}, scenario.VIP)
	if _, err := sw.Inject(scenario.PortClient, arp); err != nil {
		t.Fatal(err)
	}
	traces, err := ctrl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 0 {
		t.Error("unknown punt was reinjected")
	}
	if ctrl.Stats().Unknown == 0 {
		t.Error("unknown punt not counted")
	}
}

func TestNATAllocation(t *testing.T) {
	sw := asic.New(asic.Wedge100B())
	n := nf.NewNAT(packet.IP4{192, 0, 2, 1}, 16)
	ctrl := New(sw, nf.List{n})

	pkt := packet.NewTCP(packet.TCPOpts{
		Src: packet.IP4{10, 0, 9, 9}, Dst: packet.IP4{8, 8, 8, 8},
		SrcPort: 1234, DstPort: 80,
	})
	again, err := ctrl.HandlePacketIn(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !again {
		t.Fatal("NAT miss not repaired")
	}
	if n.Mappings() != 1 {
		t.Errorf("Mappings = %d", n.Mappings())
	}
	if ctrl.Stats().NATAllocated != 1 {
		t.Errorf("Stats = %+v", ctrl.Stats())
	}
}

// TestApplyTableWrites covers the unified write API case by case:
// every supported (nf, table) pair with a good write whose effect is
// verified against the owning NF, the bad-argument paths (wrong arity,
// wrong types), and the unknown-NF / unknown-table dispatch failures.
func TestApplyTableWrites(t *testing.T) {
	// Scenario baseline state the verifications count against:
	// 0 sessions, 3 routes, 2 ACL rules, 2 class rules, 1 VNI.
	cases := []struct {
		name    string
		write   TableWrite
		wantErr string // substring of the expected error; empty = success
		verify  func(t *testing.T, s *scenario.Scenario)
	}{
		{
			name:  "lb session ok",
			write: TableWrite{NF: "lb", Table: "lb_session", Args: []any{uint32(12345), scenario.Backend1}},
			verify: func(t *testing.T, s *scenario.Scenario) {
				if s.LB.Sessions() != 1 {
					t.Errorf("sessions = %d, want 1", s.LB.Sessions())
				}
			},
		},
		{
			name:    "lb wrong arity",
			write:   TableWrite{NF: "lb", Table: "lb_session", Args: []any{uint32(12345)}},
			wantErr: "bad arguments",
		},
		{
			name:    "lb wrong types",
			write:   TableWrite{NF: "lb", Table: "lb_session", Args: []any{"hash", "backend"}},
			wantErr: "bad arguments",
		},
		{
			name:  "router route ok",
			write: TableWrite{NF: "router", Table: "ipv4_lpm", Args: []any{packet.IP4{192, 168, 0, 0}, 16, nf.NextHop{Port: 3}}},
			verify: func(t *testing.T, s *scenario.Scenario) {
				if s.Router.Routes() != 4 {
					t.Errorf("routes = %d, want 4", s.Router.Routes())
				}
			},
		},
		{
			name:    "router wrong arity",
			write:   TableWrite{NF: "router", Table: "ipv4_lpm", Args: []any{packet.IP4{192, 168, 0, 0}}},
			wantErr: "bad arguments",
		},
		{
			name:    "router wrong types",
			write:   TableWrite{NF: "router", Table: "ipv4_lpm", Args: []any{packet.IP4{192, 168, 0, 0}, "16", nf.NextHop{Port: 3}}},
			wantErr: "bad arguments",
		},
		{
			name:  "fw acl ok",
			write: TableWrite{NF: "fw", Table: "fw_acl", Args: []any{nf.ACLRule{Priority: 5, Permit: true}}},
			verify: func(t *testing.T, s *scenario.Scenario) {
				if s.Firewall.Rules() != 3 {
					t.Errorf("acl rules = %d, want 3", s.Firewall.Rules())
				}
			},
		},
		{
			name:    "fw wrong arity",
			write:   TableWrite{NF: "fw", Table: "fw_acl", Args: nil},
			wantErr: "bad arguments",
		},
		{
			name:    "fw wrong types",
			write:   TableWrite{NF: "fw", Table: "fw_acl", Args: []any{"permit any"}},
			wantErr: "bad arguments",
		},
		{
			name:  "classifier rule ok",
			write: TableWrite{NF: "classifier", Table: "class_map", Args: []any{nf.ClassRule{Path: 10, InitialIndex: 5, Priority: 9}}},
			verify: func(t *testing.T, s *scenario.Scenario) {
				if s.Classifier.Rules() != 3 {
					t.Errorf("class rules = %d, want 3", s.Classifier.Rules())
				}
			},
		},
		{
			name:    "classifier wrong types",
			write:   TableWrite{NF: "classifier", Table: "class_map", Args: []any{uint32(10)}},
			wantErr: "bad arguments",
		},
		{
			name:  "vgw vni ok",
			write: TableWrite{NF: "vgw", Table: "vni_table", Args: []any{uint32(7777), uint16(9)}},
			verify: func(t *testing.T, s *scenario.Scenario) {
				if s.VGW.VNIs() != 2 {
					t.Errorf("vnis = %d, want 2", s.VGW.VNIs())
				}
			},
		},
		{
			name:    "vgw wrong arity",
			write:   TableWrite{NF: "vgw", Table: "vni_table", Args: []any{uint32(7777)}},
			wantErr: "bad arguments",
		},
		{
			name:    "vgw wrong types",
			write:   TableWrite{NF: "vgw", Table: "vni_table", Args: []any{uint16(9), uint32(7777)}},
			wantErr: "bad arguments",
		},
		{
			name:    "unknown NF",
			write:   TableWrite{NF: "ghost", Table: "x"},
			wantErr: "unknown NF",
		},
		{
			name:    "unknown table",
			write:   TableWrite{NF: "lb", Table: "nope"},
			wantErr: "unknown table",
		},
		{
			name:    "table of another NF",
			write:   TableWrite{NF: "router", Table: "fw_acl", Args: []any{nf.ACLRule{}}},
			wantErr: "unknown table",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s, _, ctrl := deployed(t)
			err := ctrl.Apply(tc.write)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Apply(%s/%s): %v", tc.write.NF, tc.write.Table, err)
				}
				tc.verify(t, s)
				return
			}
			if err == nil {
				t.Fatalf("bad write %s/%s accepted", tc.write.NF, tc.write.Table)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestReinjectRejectsBadInPort: a drained packet whose recorded in-port
// no port answers to is repaired but cannot go back in; it lands in
// Poll's joined error and in Stats.Failed, not in the traces.
func TestReinjectRejectsBadInPort(t *testing.T) {
	s := scenario.MustNew()
	sw := asic.New(s.Prof)
	punt := func(ctx *asic.Ctx) {
		ctx.Pkt.SFC.Meta.InPort = 0xFFF // no usable port recorded
		ctx.Meta.ToCPU = true
	}
	if err := sw.InstallIngress(s.Prof.PipelineOf(scenario.PortClient), punt); err != nil {
		t.Fatal(err)
	}
	ctrl := New(sw, s.NFs)
	if tr, err := sw.Inject(scenario.PortClient, scenario.ClientTCP(443)); err != nil || len(tr.CPU) != 1 {
		t.Fatalf("packet not punted: %+v %v", tr, err)
	}
	traces, err := ctrl.Poll()
	if len(traces) != 0 {
		t.Errorf("reinjected %d packets through a bogus in-port", len(traces))
	}
	if err == nil {
		t.Error("Poll reported no error for a bogus in-port")
	}
	if st := ctrl.Stats(); st.SessionsInstalled != 1 || st.Reinjected != 0 || st.Failed != 1 {
		t.Errorf("Stats = %+v, want 1 installed, 0 reinjected, 1 failed", st)
	}
}
