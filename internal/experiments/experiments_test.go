package experiments

import (
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the dvexp golden (testdata) from this build")

// TestDvexpGolden holds every table, rendered as `dvexp` prints the full
// run, to testdata/dvexp.txt. Every cell is a model figure, a count or a
// seeded result — none is a wall-clock reading — so the run prints the
// same bytes everywhere. A change meant to move a table rewrites the
// file with `go test ./internal/experiments -run TestDvexpGolden -update`
// and says why.
func TestDvexpGolden(t *testing.T) {
	tables, err := All()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tbl := range tables {
		sb.WriteString(tbl.String() + "\n")
	}
	const file = "testdata/dvexp.txt"
	if *update {
		if err := os.WriteFile(file, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Errorf("dvexp output differs from %s:\n%s", file, sb.String())
	}
}

// cell parses a numeric cell.
func cell(t *testing.T, tbl Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s row %d col %d = %q: %v", tbl.ID, row, col, tbl.Rows[row][col], err)
	}
	return v
}

func TestFig6Shape(t *testing.T) {
	tbl, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	// Paper layouts: 3 recircs for (a), 1 for (b).
	if got := cell(t, tbl, 0, 1); got != 3 {
		t.Errorf("Fig6(a) recircs = %v, want 3", got)
	}
	if got := cell(t, tbl, 1, 1); got != 1 {
		t.Errorf("Fig6(b) recircs = %v, want 1", got)
	}
	naive := cell(t, tbl, 2, 1)
	opt := cell(t, tbl, 3, 1)
	if opt > 1 {
		t.Errorf("optimizer recircs = %v, want <= 1", opt)
	}
	if naive <= opt {
		t.Errorf("naive (%v) not worse than optimizer (%v)", naive, opt)
	}
}

func TestFig7Shape(t *testing.T) {
	tbl, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if x := cell(t, tbl, 0, 1); x < 0.60 || x > 0.64 {
		t.Errorf("x = %v, want ≈0.62", x)
	}
	if k2 := cell(t, tbl, 2, 1); k2 < 0.36 || k2 > 0.40 {
		t.Errorf("k=2 throughput = %v, want ≈0.38", k2)
	}
	if k3 := cell(t, tbl, 3, 1); k3 < 0.14 || k3 > 0.18 {
		t.Errorf("k=3 throughput = %v, want ≈0.16", k3)
	}
}

func TestFig8aShape(t *testing.T) {
	tbl, err := Fig8a()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Analytic and simulated agree within 5% + 0.5G at every k, and
	// both decay super-linearly.
	for i := range tbl.Rows {
		analytic := cell(t, tbl, i, 1)
		sim := cell(t, tbl, i, 2)
		if diff := analytic - sim; diff < -analytic*0.05-0.5 || diff > analytic*0.05+0.5 {
			t.Errorf("k=%d: analytic %v vs simulated %v", i+1, analytic, sim)
		}
		if i > 0 && analytic >= 100/float64(i+1) {
			t.Errorf("k=%d not super-linear: %v", i+1, analytic)
		}
	}
}

func TestFig8bShape(t *testing.T) {
	tbl, err := Fig8b()
	if err != nil {
		t.Fatal(err)
	}
	text := tbl.String()
	for _, want := range []string{"650ns", "75ns", "145ns"} {
		if !strings.Contains(text, want) {
			t.Errorf("Fig8b missing %q:\n%s", want, text)
		}
	}
	if frac := cell(t, tbl, 3, 1); frac < 0.10 || frac > 0.13 {
		t.Errorf("overhead fraction = %v, want ≈0.115", frac)
	}
}

func TestTable1Shape(t *testing.T) {
	tbl, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	vals := make(map[string]float64)
	for i, r := range tbl.Rows {
		vals[r[0]] = cell(t, tbl, i, 1)
	}
	// Stages dominate, around the paper's 20.8%.
	if vals["Stages"] < 10 || vals["Stages"] > 35 {
		t.Errorf("Stages = %v%%, want ~20%%", vals["Stages"])
	}
	// Every other resource is small; TCAM is zero.
	for _, name := range []string{"TableIDs", "Gateways", "Crossbars", "VLIWs", "SRAM"} {
		if vals[name] >= vals["Stages"] {
			t.Errorf("%s = %v%% not dominated by Stages = %v%%", name, vals[name], vals["Stages"])
		}
		if vals[name] > 8 {
			t.Errorf("%s = %v%%, want small", name, vals[name])
		}
	}
	if vals["TCAM"] != 0 {
		t.Errorf("TCAM = %v%%, want 0", vals["TCAM"])
	}
}

func TestFig9Shape(t *testing.T) {
	tbl, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	vals := make(map[string]string)
	for _, r := range tbl.Rows {
		vals[r[0]] = r[1]
	}
	if vals["external capacity (Gbps)"] != "1600.00" {
		t.Errorf("external capacity = %s", vals["external capacity (Gbps)"])
	}
	if vals["once-recirculable fraction"] != "1.00" {
		t.Errorf("once-recirculable = %s", vals["once-recirculable fraction"])
	}
	if vals["max recirculations"] != "1" {
		t.Errorf("max recircs = %s", vals["max recirculations"])
	}
	if vals["PTF cases passed"] != "4/4" {
		t.Errorf("PTF = %s", vals["PTF cases passed"])
	}
	if vals["effective throughput @1.6T (Gbps)"] != "1600.00" {
		t.Errorf("effective throughput = %s", vals["effective throughput @1.6T (Gbps)"])
	}
}

func TestEmulationShape(t *testing.T) {
	tbl, err := Emulation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// SRAM grows monotonically with the factor; Dejavu fits.
	prev := 0.0
	for i := range tbl.Rows {
		sram := cell(t, tbl, i, 2)
		if sram < prev {
			t.Errorf("row %d: SRAM %v below previous %v", i, sram, prev)
		}
		prev = sram
	}
	if tbl.Rows[0][5] != "true" {
		t.Error("Dejavu does not fit its own prototype")
	}
}

func TestSoftwareGapShape(t *testing.T) {
	tbl, err := SoftwareGap()
	if err != nil {
		t.Fatal(err)
	}
	cores := cell(t, tbl, 2, 1)
	if cores < 100 {
		t.Errorf("cores for 1.6T = %v, want hundreds", cores)
	}
	speedup := cell(t, tbl, 3, 1)
	if speedup < 10 {
		t.Errorf("speedup = %v, want >= 10x", speedup)
	}
}

func TestMultiSwitchShape(t *testing.T) {
	tbl, err := MultiSwitch()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// 1 switch: the heavy chain does not fit; 4 switches: it does.
	if tbl.Rows[0][3] != "does not fit" {
		t.Errorf("1 switch: %s", tbl.Rows[0][3])
	}
	if tbl.Rows[2][3] != "fits" {
		t.Errorf("4 switches: %s", tbl.Rows[2][3])
	}
	// Bandwidth constant across cluster sizes.
	if tbl.Rows[0][2] != tbl.Rows[2][2] {
		t.Error("bandwidth varies with cluster size")
	}
}

// TestFabricPlaceShape: the placement comparison produces one row per
// seed × topology, never lets the cost-based placer lose to the lex
// baseline (the run itself gates on it), wins strictly via branching on
// the diamond, and is bit-for-bit reproducible.
func TestFabricPlaceShape(t *testing.T) {
	tbl, err := FabricPlace()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "fabricplace" || len(tbl.Rows) != 6 {
		t.Fatalf("unexpected table shape: %d rows", len(tbl.Rows))
	}
	branchWin := false
	for i, r := range tbl.Rows {
		verdict := r[len(r)-1]
		if verdict != "tie" && verdict != "better" {
			t.Errorf("row %d (%s/%s): verdict %q", i, r[0], r[1], verdict)
		}
		if r[8] == "true" && verdict == "better" {
			branchWin = true
		}
	}
	if !branchWin {
		t.Error("no row won strictly via a branching placement")
	}
	again, err := FabricPlace()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.String() != again.String() {
		t.Error("fabricplace table not reproducible across runs")
	}
}

func TestAllAndByID(t *testing.T) {
	tables, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(IDs()) {
		t.Errorf("All returned %d tables, IDs lists %d", len(tables), len(IDs()))
	}
	for _, id := range IDs() {
		tbl, err := ByID(id)
		if err != nil {
			t.Errorf("ByID(%s): %v", id, err)
		}
		if tbl.ID != id {
			t.Errorf("ByID(%s) returned table %s", id, tbl.ID)
		}
		if tbl.String() == "" {
			t.Errorf("table %s renders empty", id)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown ID accepted")
	}
}
