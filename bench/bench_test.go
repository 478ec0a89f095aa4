package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/packet"
	"dejavu/internal/scenario"
)

// smokeSeconds keeps the whole package under 15 s, race detector on.
const smokeSeconds = 0.2

// exactModel is what the simulated-time metrics must read, to the last
// digit, on every seed; a workload not listed only has to agree with
// route.Plan, which its own run checks.
var exactModel = map[string][2]float64{
	"chain-steady":    {1, 1375},
	"chain-steady-2w": {1, 1375},
	"bare-forward":    {0, 650},
	"newflow-punt":    {2, 2350},
	"apply-churn":     {1, 1375},
}

// TestSmoke runs every workload, timed and traced, at a short duration
// on two seeds: every metric BENCHMARK.json declares must be emitted,
// nothing may fail, and the model figures must take their exact values.
// It asserts nothing about timing.
func TestSmoke(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		for i := range workloads {
			w := &workloads[i]
			t.Run(fmt.Sprintf("%s/seed%d", w.name, seed), func(t *testing.T) { smoke(t, w, seed) })
		}
	}
}

func smoke(t *testing.T, w *workload, seed int64) {
	var fabricModel [2]float64
	for _, traced := range []bool{false, true} {
		dir := t.TempDir()
		res, err := runOne(w, seed, smokeSeconds, traced, dir)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if !res.Correct || res.Failed != 0 || res.Metrics["fail_ratio"].Value != 0 {
			t.Errorf("traced=%v: %d of %d operations failed: %v", traced, res.Failed, res.Attempted, res.Problems)
		}
		line, err := res.driverLine()
		if err != nil {
			t.Errorf("traced=%v: %v", traced, err)
		}
		checkDriverLine(t, line, traced)

		got := [2]float64{res.Metrics["model.recircs_per_pkt"].Value, res.Metrics["model.latency_ns"].Value}
		if want, ok := exactModel[w.name]; ok && got != want {
			t.Errorf("traced=%v: model recircs/latency = %v, want exactly %v", traced, got, want)
		}
		if w.name == "fabric-heal" {
			// No constant to hold it to, but it must repeat.
			if traced && got != fabricModel {
				t.Errorf("model figures %v timed, %v traced", fabricModel, got)
			}
			fabricModel = got
		}
		if traced {
			// The 0.9–1.1 gate is a timing assertion; full-length runs
			// apply it, this test only wants the ledger to exist.
			if c := res.Metrics["ledger.closure"].Value; c <= 0 {
				t.Errorf("ledger.closure %v", c)
			}
			if _, err := os.Stat(filepath.Join(dir, w.name+".trace.json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		}
	}
}

// checkDriverLine holds a result line to the contract: exactly the four
// keys, and exactly the declared metrics of its kind.
func checkDriverLine(t *testing.T, line string, traced bool) {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &obj); err != nil {
		t.Fatalf("result line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := obj[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(obj) != 4 {
		t.Errorf("result line has %d keys, want 4", len(obj))
	}
	var metrics map[string]struct {
		Value *float64
		Unit  string
	}
	if err := json.Unmarshal(obj["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(metrics) != len(defs) {
		t.Errorf("result line has %d metrics, want %d", len(metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := metrics[d.Name]
		if !ok || m.Value == nil || m.Unit != d.Unit {
			t.Errorf("metric %s missing or malformed in result line: %+v", d.Name, m)
		} else if !traced && *m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v; these are never 0", d.Name, *m.Value)
		}
	}
}

// TestSpecMatchesTables keeps BENCHMARK.json identical to what the
// metric and workload tables generate.
func TestSpecMatchesTables(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Errorf("BENCHMARK.json is stale; regenerate with `go run ./bench -spec > BENCHMARK.json`")
	}
}

// TestRecycledParsedSlot pins the defect loadFrame guards against and
// proves the guard: a slot that already carried a packet through the
// chain, refilled with Parse alone, skips the chain entirely yet is
// reported delivered; refilled through loadFrame it recirculates once
// like a fresh one.
func TestRecycledParsedSlot(t *testing.T) {
	flows, err := makeFlows(kindFull, 2, 1, pickSize)
	if err != nil {
		t.Fatal(err)
	}
	env, err := setupChain(flows, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sw := env.dep.Switch
	inject := func(slot *packet.Parsed) asic.BatchResult {
		return sw.InjectQuietBatch(scenario.PortClient, []*packet.Parsed{slot})
	}

	var slot packet.Parsed
	if err := loadFrame(&slot, flows[0].frame); err != nil {
		t.Fatal(err)
	}
	if br := inject(&slot); br.Delivered != 1 || br.Recirculations != 1 {
		t.Fatalf("fresh slot: %+v, want one delivery with one recirculation", br)
	}

	// The defect: Parse clears validity bits, not the stale SFC header.
	if err := slot.Parse(flows[1].frame); err != nil {
		t.Fatal(err)
	}
	br := inject(&slot)
	if br.Delivered == 1 && br.Recirculations == 1 && checkParsed(kindFull, &flows[1].tmpl, &slot) {
		t.Log("internal/packet now clears recycled slots itself: drop the README note and this half of the test")
	} else if br.Delivered != 1 || br.Recirculations != 0 {
		t.Errorf("recycled slot without the guard: %+v; the known defect delivers it with zero recirculations", br)
	}

	// The guard: the loader zeroes the slot first.
	if err := loadFrame(&slot, flows[1].frame); err != nil {
		t.Fatal(err)
	}
	if br := inject(&slot); br.Delivered != 1 || br.Recirculations != 1 || !checkParsed(kindFull, &flows[1].tmpl, &slot) {
		t.Errorf("recycled slot through loadFrame: %+v, want one delivery with one recirculation and rewritten headers", br)
	}
}

// TestCompareVerdicts checks the three verdicts -compare can give.
func TestCompareVerdicts(t *testing.T) {
	d := metricDef{Name: "lat_us_p50", Unit: "us", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{steady, steady, "ok"},
		{steady, slower, "REGRESSION"},
		{slower, steady, "ok"},
		{steady, noisy, "unresolved"},
	} {
		if got, _ := verdict(d, c.a, c.b); got != c.want {
			t.Errorf("verdict = %s, want %s", got, c.want)
		}
	}
	// Python: statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	if got := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("quartileSpread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// TestHostClock pins what the scaling rests on: the kernel allocates
// nothing (it runs between the bursts of allocation-free loops), the
// factor is the nominal time over the median of the latest timings, so
// one interrupted kernel run changes nothing, and a window's rate is
// operations over reference-speed loop time.
func TestHostClock(t *testing.T) {
	c := newHostClock()
	if a := testing.AllocsPerRun(100, c.kernel); a != 0 {
		t.Errorf("kernel allocates %v times per run", a)
	}
	if want := kernelNominalNs / median(c.recent[:]); c.factor != want {
		t.Errorf("factor %v, want nominal over the median timing = %v", c.factor, want)
	}
	if got, want := c.scale(1_000_000), int64(1e6*c.factor+0.5); got != want {
		t.Errorf("scale(1ms) = %d, want %d", got, want)
	}
	before := c.runs
	if t1 := c.tick(c.last); t1 != c.last || c.runs != before {
		t.Errorf("tick ran the kernel %d times before kernelEvery had passed", c.runs-before)
	}
	if c.tick(c.last + kernelEvery); c.runs != before+1 {
		t.Errorf("tick ran the kernel %d times once kernelEvery had passed, want 1", c.runs-before)
	}

	w := newWindows(0, 8)
	for i := range w.ops {
		// 128 operations per reference-speed second in every window...
		w.add(int64(i)*w.length, 128, 1_000_000_000)
	}
	w.add(0, 0, 3_000_000_000) // ...but the first, where the loop stalled
	w.add(w.end(), 1000, 1)    // after the last window: ignored
	if rate, n := perSecond(w); n != 8 || rate != 128 {
		t.Errorf("perSecond = %v over %d windows, want the median window's 128 over 8", rate, n)
	}
	if rate, _ := perSecond(w, w); rate != 256 {
		t.Errorf("perSecond of two aligned tallies = %v, want 256", rate)
	}
}
