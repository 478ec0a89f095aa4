package scenario

import (
	"strings"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/ctl"
	"dejavu/internal/nsh"
	"dejavu/internal/packet"
	"dejavu/internal/pipeline"
)

// learnt deploys the scenario on a fresh switch and runs the learning
// step of the §5 suite: the full probe's first packet misses the LB
// session table and punts, and one Poll installs the session.
func learnt(t *testing.T) *asic.Switch {
	t.Helper()
	s := MustNew()
	res, err := pipeline.Build(pipeline.Inputs{Prof: s.Prof, Chains: s.Chains, NFs: s.NFs, Placement: s.Placement}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sw := asic.New(s.Prof)
	if err := res.Dep.InstallOn(sw); err != nil {
		t.Fatal(err)
	}
	ctrl := ctl.New(sw, s.NFs)
	full := Probes()[0]
	tr, err := sw.Inject(full.Port, full.Packet())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.CPU) != 1 || len(tr.Out) != 0 {
		t.Fatalf("first full-path packet: %d punts, %d out; want 1 punt (path %s)", len(tr.CPU), len(tr.Out), tr.Path())
	}
	if _, err := ctrl.Poll(); err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestProbesPassAfterLearning runs the §5 suite on a fresh deployment:
// after the learning punt every probe, in the order full, medium,
// basic, passes Verify.
func TestProbesPassAfterLearning(t *testing.T) {
	sw := learnt(t)
	probes := Probes()
	var names []string
	for _, pr := range probes {
		names = append(names, pr.Name)
	}
	if got := strings.Join(names, ","); got != "full,medium,basic" {
		t.Fatalf("probe order = %s, want full,medium,basic", got)
	}
	for _, pr := range probes {
		tr, err := sw.Inject(pr.Port, pr.Packet())
		if err != nil {
			t.Fatalf("probe %s: %v", pr.Name, err)
		}
		if err := pr.Verify(tr.Out); err != nil {
			t.Errorf("%v (path %s)", err, tr.Path())
		}
	}
}

// TestProbesWithinRecircBudget holds every probe to the paper's budget
// of at most one recirculation, and checks the budget is tight: some
// path of Fig. 2 needs its one recirculation.
func TestProbesWithinRecircBudget(t *testing.T) {
	sw := learnt(t)
	most := 0
	for _, pr := range Probes() {
		tr, err := sw.Inject(pr.Port, pr.Packet())
		if err != nil {
			t.Fatalf("probe %s: %v", pr.Name, err)
		}
		if tr.Recirculations > 1 {
			t.Errorf("probe %s: %d recirculations, want <= 1", pr.Name, tr.Recirculations)
		}
		most = max(most, tr.Recirculations)
	}
	if most != 1 {
		t.Errorf("most recirculations over the suite = %d, want 1", most)
	}
}

// TestProbeChecksStandalone applies the probes' header checks to
// hand-built packets.
func TestProbeChecksStandalone(t *testing.T) {
	plain := ClientTCP(443)
	if err := noSFC(plain); err != nil {
		t.Errorf("noSFC on a plain packet: %v", err)
	}
	withSFC := ClientTCP(443)
	withSFC.PushSFC(nsh.New(PathFull, 1))
	if err := noSFC(withSFC); err == nil {
		t.Error("noSFC passed with an SFC header")
	}
	if err := tenantVXLAN(plain); err == nil || !strings.Contains(err.Error(), "no VXLAN") {
		t.Errorf("tenantVXLAN without VXLAN: %v", err)
	}
	encap := TenantBound()
	encap.SetValid(packet.HdrVXLAN)
	encap.VXLAN.VNI = TenantVNI
	if err := tenantVXLAN(encap); err != nil {
		t.Errorf("tenantVXLAN on the tenant VNI: %v", err)
	}
	encap.VXLAN.VNI = TenantVNI + 1
	if err := tenantVXLAN(encap); err == nil || !strings.Contains(err.Error(), "vni=") {
		t.Errorf("tenantVXLAN on a foreign VNI: %v", err)
	}
}

// TestVerifyDetectsWrongPort feeds Verify the basic probe's packet on
// a port other than its exit.
func TestVerifyDetectsWrongPort(t *testing.T) {
	basic := Probes()[2]
	out := []asic.Emitted{{Port: PortBackends, Pkt: basic.Packet()}}
	err := basic.Verify(out)
	if err == nil || !strings.Contains(err.Error(), "exited port") {
		t.Errorf("wrong exit port: error %v, want one naming the exit port", err)
	}
}

// TestVerifyDetectsFailedCheck feeds Verify packets on the right port
// whose headers fail the probe's check.
func TestVerifyDetectsFailedCheck(t *testing.T) {
	probes := Probes()
	full, medium := probes[0], probes[1]
	withSFC := full.Packet()
	withSFC.PushSFC(nsh.New(PathFull, 1))
	for _, c := range []struct {
		name  string
		probe Probe
		out   []asic.Emitted
		want  string
	}{
		{"SFC header left on", full, []asic.Emitted{{Port: PortBackends, Pkt: withSFC}}, "SFC header"},
		{"no VXLAN", medium, []asic.Emitted{{Port: PortVTEP, Pkt: full.Packet()}}, "no VXLAN"},
	} {
		err := c.probe.Verify(c.out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// TestVerifyRejects holds Verify to exactly one emitted packet and
// accepts a correct one.
func TestVerifyRejects(t *testing.T) {
	full := Probes()[0]
	plain := full.Packet
	for _, c := range []struct {
		name string
		out  []asic.Emitted
		want string
	}{
		{"accepted", []asic.Emitted{{Port: PortBackends, Pkt: plain()}}, ""},
		{"nothing emitted", nil, "emitted 0 packets"},
		{"two emitted", []asic.Emitted{{Port: PortBackends, Pkt: plain()}, {Port: PortBackends, Pkt: plain()}}, "emitted 2 packets"},
	} {
		err := full.Verify(c.out)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
}
