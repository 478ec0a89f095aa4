package intent

import (
	"errors"
	"os"
	"strings"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/core"
	"dejavu/internal/packet"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
)

// testDocJSON is a small but complete intent: two chains over three
// NFs, every referenced NF configured.
const testDocJSON = `{
  "version": 1,
  "name": "test",
  "profile": "wedge100b",
  "optimizer": "exhaustive",
  "enter": 0,
  "loopback_ports": [16, 17],
  "chains": [
    {"path_id": 10, "nfs": ["classifier", "fw", "router"], "weight": 0.7, "exit_pipeline": 0},
    {"path_id": 30, "nfs": ["classifier", "router"], "weight": 0.3, "exit_pipeline": 0}
  ],
  "classifier": {
    "default_path": 30,
    "default_index": 2,
    "rules": [
      {"dst": "203.0.113.80/32", "proto": "tcp", "priority": 20, "path": 10, "initial_index": 3}
    ]
  },
  "firewall": {
    "default_permit": true,
    "rules": [
      {"dst": "203.0.113.80/32", "priority": 10, "permit": false}
    ]
  },
  "router": {
    "routes": [
      {"prefix": "0.0.0.0/0", "port": 1, "dst_mac": "02:de:1a:00:00:fe", "src_mac": "02:de:1a:00:00:01"}
    ]
  }
}`

// testDoc parses the canonical test intent, failing the test on error.
func testDoc(t *testing.T) *Document {
	t.Helper()
	doc, err := Parse(strings.NewReader(testDocJSON))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return doc
}

func TestParseValid(t *testing.T) {
	doc := testDoc(t)
	if doc.SchemaVersion != Version {
		t.Errorf("version = %d, want %d", doc.SchemaVersion, Version)
	}
	if doc.Name != "test" {
		t.Errorf("name = %q", doc.Name)
	}
	if len(doc.Chains) != 2 {
		t.Fatalf("chains = %d, want 2", len(doc.Chains))
	}
	chains := doc.RouteChains()
	if chains[0].PathID != 10 || chains[1].PathID != 30 {
		t.Errorf("route chains = %v", chains)
	}
}

func TestParseRejectsUnknownVersion(t *testing.T) {
	bad := strings.Replace(testDocJSON, `"version": 1`, `"version": 2`, 1)
	if _, err := Parse(strings.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "unknown schema version") {
		t.Fatalf("want unknown-version rejection, got %v", err)
	}
	// A document with no version at all (version 0) is rejected too —
	// intent files must self-describe.
	missing := strings.Replace(testDocJSON, `"version": 1,`, ``, 1)
	if _, err := Parse(strings.NewReader(missing)); err == nil {
		t.Fatal("want rejection for missing version")
	}
}

func TestParseRejectsUnknownField(t *testing.T) {
	bad := strings.Replace(testDocJSON, `"name": "test",`, `"name": "test", "wieght": 1,`, 1)
	if _, err := Parse(strings.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("want unknown-field rejection, got %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		edit func(d *Document)
		want string
	}{
		{"no chains", func(d *Document) { d.File.Chains = nil }, "no chains"},
		{"duplicate path", func(d *Document) { d.File.Chains[1].PathID = 10 }, "declared twice"},
		{"bad hint syntax", func(d *Document) { d.Placement = map[string]string{"fw": "sideways 0"} }, "bad placement direction"},
		{"bad hint index", func(d *Document) { d.Placement = map[string]string{"fw": "ingress minus-one"} }, "bad pipeline index"},
		{"hint for unused NF", func(d *Document) { d.Placement = map[string]string{"nat": "ingress 0"} }, "no chain uses"},
		{"fabric too small", func(d *Document) { d.Fabric = &FabricSpec{Switches: 1} }, "must be >= 2"},
		{"hints in fabric mode", func(d *Document) {
			d.Fabric = &FabricSpec{Switches: 2}
			d.Placement = map[string]string{"fw": "ingress 0"}
		}, "single-switch"},
		{"fabric pin for unused NF", func(d *Document) {
			d.Fabric = &FabricSpec{Switches: 2, Pin: map[string]int{"nat": 0}}
		}, "no chain uses"},
		{"fabric pin out of range", func(d *Document) {
			d.Fabric = &FabricSpec{Switches: 2, Pin: map[string]int{"fw": 2}}
		}, "outside the 2-switch fabric"},
		{"fabric pin negative", func(d *Document) {
			d.Fabric = &FabricSpec{Switches: 2, Pin: map[string]int{"fw": -1}}
		}, "outside the 2-switch fabric"},
		{"fabric stage demand zero", func(d *Document) {
			d.Fabric = &FabricSpec{Switches: 2, StageDemand: map[string]int{"fw": 0}}
		}, `stage_demand for NF "fw" is 0`},
		{"fabric stage demand negative", func(d *Document) {
			d.Fabric = &FabricSpec{Switches: 2, StageDemand: map[string]int{"router": 3, "fw": -2}}
		}, `stage_demand for NF "fw" is -2`},
		{"invalid chain shape", func(d *Document) { d.File.Chains[0].PathID = 0 }, "path"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := testDoc(t)
			tc.edit(doc)
			err := doc.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestBuildConfigAppliesHints(t *testing.T) {
	doc := testDoc(t)
	doc.Placement = map[string]string{"fw": "egress 1"}
	cfg, err := doc.BuildConfig()
	if err != nil {
		t.Fatalf("BuildConfig: %v", err)
	}
	want := asic.PipeletID{Pipeline: 1, Dir: asic.Egress}
	if got := cfg.Pin["fw"]; got != want {
		t.Errorf("Pin[fw] = %v, want %v", got, want)
	}
	// A hint beyond the profile's pipelines is rejected at build time
	// (the profile is only known once the document materializes).
	doc.Placement["fw"] = "ingress 7"
	if _, err := doc.BuildConfig(); err == nil {
		t.Fatal("want rejection for out-of-profile hint")
	}
}

func TestHashStableAndContentSensitive(t *testing.T) {
	a, b := testDoc(t), testDoc(t)
	if a.Hash() != b.Hash() {
		t.Fatal("identical documents must hash identically")
	}
	if a.Hash() != a.Clone().Hash() {
		t.Fatal("clone must hash identically")
	}
	b.File.Chains[0].Weight = 0.71
	if a.Hash() == b.Hash() {
		t.Fatal("weight change must change the hash")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := testDoc(t)
	b := a.Clone()
	b.File.Chains[0].NFs[0] = "nat"
	if a.File.Chains[0].NFs[0] != "classifier" {
		t.Fatal("Clone aliased the chain NF slice")
	}
}

// Both hint doors keep the classifier on the entry, where untagged
// traffic meets it first: a fabric pin off switch 0 and a single-switch
// hint off the entry ingress are refused with route.ErrClassifierOffEntry,
// and a hint onto the entry ingress is accepted.
func TestPlacementHintsKeepTheClassifierOnTheEntry(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(d *Document)
		ok   bool
	}{
		{"fabric pin off the entry", func(d *Document) { d.Fabric = &FabricSpec{Switches: 3, Pin: map[string]int{"classifier": 2}} }, false},
		{"fabric pin on the entry", func(d *Document) { d.Fabric = &FabricSpec{Switches: 3, Pin: map[string]int{"classifier": 0}} }, true},
		{"hint on egress 0", func(d *Document) { d.Placement = map[string]string{"classifier": "egress 0"} }, false},
		{"hint on ingress 1", func(d *Document) { d.Placement = map[string]string{"classifier": "ingress 1"} }, false},
		{"hint on the entry, ingress 1", func(d *Document) {
			d.Enter = 1
			d.Placement = map[string]string{"classifier": "ingress 1"}
		}, true},
	} {
		doc := testDoc(t)
		tc.edit(doc)
		if err := doc.Validate(); (err == nil) != tc.ok || (err != nil && !errors.Is(err, route.ErrClassifierOffEntry)) {
			t.Errorf("%s: Validate = %v", tc.name, err)
		}
	}
}

// TestBadHintsRefusedInNameOrder: of several placement hints beyond the
// profile, BuildConfig names the first NF in name order, every time. It
// returned whichever hint map iteration reached first.
func TestBadHintsRefusedInNameOrder(t *testing.T) {
	doc := testDoc(t)
	doc.Placement = map[string]string{"router": "ingress 9", "fw": "egress 7", "classifier": "ingress 8"}
	for run := 0; run < 20; run++ {
		_, err := doc.BuildConfig()
		if err == nil || !strings.Contains(err.Error(), `"ingress 8" for "classifier"`) {
			t.Fatalf("run %d: BuildConfig = %v, want the classifier hint refused", run, err)
		}
	}
}

// edgeJSON is the §5 scenario as an intent document.
const edgeJSON = `{
  "version": 1,
  "profile": "wedge100b",
  "optimizer": "exhaustive",
  "enter": 0,
  "loopback_ports": [16, 17, 18, 19],
  "chains": [
    {"path_id": 10, "nfs": ["classifier", "fw", "vgw", "lb", "router"], "weight": 0.5, "exit_pipeline": 0},
    {"path_id": 20, "nfs": ["classifier", "vgw", "router"], "weight": 0.3, "exit_pipeline": 0},
    {"path_id": 30, "nfs": ["classifier", "router"], "weight": 0.2, "exit_pipeline": 0}
  ],
  "classifier": {
    "default_path": 30,
    "default_index": 2,
    "rules": [
      {"dst": "203.0.113.80/32", "proto": "tcp", "priority": 20, "path": 10, "initial_index": 5, "tenant": 42},
      {"dst": "10.0.2.0/24", "priority": 10, "path": 20, "initial_index": 3, "tenant": 42}
    ]
  },
  "firewall": {
    "default_permit": true,
    "rules": [
      {"dst": "203.0.113.80/32", "proto": "tcp", "dst_port": 443, "priority": 20, "permit": true},
      {"dst": "203.0.113.80/32", "priority": 10, "permit": false}
    ]
  },
  "vgw": {
    "local_vtep": "172.16.0.1",
    "local_mac": "02:de:1a:00:00:01",
    "vnis": [{"vni": 5001, "tenant": 42}],
    "encap": [{"inner_dst": "10.0.2.5", "vni": 5001, "remote": "172.16.0.9", "next_mac": "02:de:1a:00:00:05"}]
  },
  "lb": {
    "session_capacity": 4096,
    "vips": [{"vip": "203.0.113.80", "backends": ["10.0.1.1", "10.0.1.2"]}]
  },
  "router": {
    "routes": [
      {"prefix": "10.0.0.0/16", "port": 8, "dst_mac": "02:de:1a:00:00:05", "src_mac": "02:de:1a:00:00:01"},
      {"prefix": "172.16.0.0/16", "port": 9, "dst_mac": "02:de:1a:00:00:05", "src_mac": "02:de:1a:00:00:01"},
      {"prefix": "0.0.0.0/0", "port": 1, "dst_mac": "02:de:1a:00:00:fe", "src_mac": "02:de:1a:00:00:01"}
    ]
  }
}`

// build parses a document and builds its deployment, as every dejavu
// command that reads one does.
func build(doc string) (*core.Config, error) {
	d, err := Parse(strings.NewReader(doc))
	if err != nil {
		return nil, err
	}
	return d.BuildConfig()
}

func TestParseAndDeployEdgeDocument(t *testing.T) {
	cfg, err := build(edgeJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Chains) != 3 || len(cfg.NFs) != 5 {
		t.Fatalf("chains=%d nfs=%d", len(cfg.Chains), len(cfg.NFs))
	}
	if len(cfg.LoopbackPorts) != 4 {
		t.Errorf("loopback ports = %d", len(cfg.LoopbackPorts))
	}

	// The parsed document must deploy and forward traffic end to end.
	d, err := core.Deploy(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := d.Inject(scenario.PortClient, scenario.ClientTCP(443))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped || len(tr.Out) != 1 || tr.Out[0].Port != scenario.PortBackends {
		t.Fatalf("full path broken: dropped=%v out=%+v", tr.Dropped, tr.Out)
	}
	tr, err = d.Inject(scenario.PortClient, scenario.TenantBound())
	if err != nil || tr.Dropped {
		t.Fatalf("medium path broken: %v", err)
	}
	if !tr.Out[0].Pkt.Valid(packet.HdrVXLAN) {
		t.Error("VXLAN encap missing on tenant path")
	}
}

// TestParseRejectsMalformed: each document is refused, by the parser or
// by the builder, for its own defect.
func TestParseRejectsMalformed(t *testing.T) {
	const v = `"version": 1, `
	cases := map[string]struct{ doc, want string }{
		"bad json":       {`{`, "unexpected EOF"},
		"unknown field":  {`{` + v + `"chains": [], "bogus": 1}`, "unknown field"},
		"no chains":      {`{` + v + `"chains": []}`, "no chains"},
		"bad profile":    {`{` + v + `"profile": "bigswitch", "chains": [{"path_id":1,"nfs":["r"]}]}`, "unknown profile"},
		"bad optimizer":  {`{` + v + `"optimizer": "magic", "chains": [{"path_id":1,"nfs":["r"]}]}`, "unknown optimizer"},
		"zero path":      {`{` + v + `"chains": [{"path_id":0,"nfs":["r"]}]}`, "path"},
		"missing nf":     {`{` + v + `"chains": [{"path_id":1,"nfs":["ghost"]}]}`, "no configuration section"},
		"bad ip":         {`{` + v + `"chains": [{"path_id":1,"nfs":["router"]}], "router": {"routes": [{"prefix": "nonsense", "port": 1}]}}`, "bad IPv4 prefix"},
		"bad mac":        {`{` + v + `"chains": [{"path_id":1,"nfs":["vgw"]}], "vgw": {"local_vtep": "1.2.3.4", "local_mac": "zz:zz"}}`, "bad MAC"},
		"bad proto":      {`{` + v + `"chains": [{"path_id":1,"nfs":["fw"]}], "firewall": {"rules": [{"proto": "sctp", "priority": 1}]}}`, "unknown protocol"},
		"bad class cidr": {`{` + v + `"chains": [{"path_id":1,"nfs":["classifier"]}], "classifier": {"default_path": 1, "default_index": 1, "rules": [{"dst": "1.2.3.4", "path": 1, "initial_index": 1}]}}`, "bad IPv4 prefix"},
	}
	for name, c := range cases {
		if _, err := build(c.doc); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, c.want)
		}
	}
}

func TestParseMinimalDefaults(t *testing.T) {
	cfg, err := build(`{
	  "version": 1,
	  "chains": [{"path_id": 1, "nfs": ["classifier", "router"], "exit_pipeline": 0}],
	  "classifier": {"default_path": 1, "default_index": 2},
	  "router": {"routes": [{"prefix": "0.0.0.0/0", "port": 1}]}
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Prof.Pipelines != 2 {
		t.Error("default profile not wedge100b")
	}
	if cfg.Optimizer != core.OptExhaustive {
		t.Errorf("default optimizer = %q", cfg.Optimizer)
	}
	if _, err := core.Deploy(*cfg); err != nil {
		t.Fatalf("minimal document does not deploy: %v", err)
	}
}

func TestLoadFromDisk(t *testing.T) {
	path := t.TempDir() + "/edge.json"
	if err := os.WriteFile(path, []byte(edgeJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	doc, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Chains) != 3 {
		t.Errorf("chains = %d", len(doc.Chains))
	}
	if _, err := Load(t.TempDir() + "/missing.json"); err == nil {
		t.Error("missing file loaded")
	}
}
