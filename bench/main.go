// Command bench is the repository's benchmark: six workloads over the
// paper's §5 chain, the bare ASIC shell, the slow path, the apply plane
// and the fabric, each measured end to end with tracing off and, in a
// separate traced run, layer by layer from outside — every layer is
// timed through calls into its exported functions, nothing under
// internal/ is instrumented. README.md explains the metrics, the
// workloads and how to compare two sets of runs.
//
//	go run ./bench                          every workload, timed then traced
//	go run ./bench -runs 10 -out a.json     ten seeds per workload, saved for -compare
//	go run ./bench -compare a.json b.json   per (workload, metric) verdicts
//	go run ./bench --workload chain-steady --seed 1 --seconds 10 --trace 0
//
// The last form is one run as the benchmark driver invokes it; its
// final stdout line is the result object BENCHMARK.json's contract
// describes.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// workload is one named set of inputs.
type workload struct {
	name    string
	workers int
	why     string
	run     func(*runCtx) error
}

// workloads is the benchmark's workload list; BENCHMARK.json repeats
// the names and reasons.
var workloads = []workload{
	{"chain-steady", 1, "the paper's headline path: 4096 established flows through the full §5 chain, one recirculation each, wire to wire; NF, MAU and compose code do most of the work",
		func(rc *runCtx) error { return runChainSteady(rc, 1) }},
	{"chain-steady-2w", 2, "the same chain from two injectors on disjoint flow halves: exposes contention on the shared table locks and hit counters that one injector cannot see",
		func(rc *runCtx) error { return runChainSteady(rc, 2) }},
	{"bare-forward", 1, "synthetic forwarder, 64 B frames: no NF, MAU or compose code runs, so it is the bypass control for every NF-side optimisation and the row where per-packet shell cost dominates",
		runBareForward},
	{"newflow-punt", 1, "every packet is the first of a new VIP flow: LB miss, CPU punt, session insert, reinject; table writes beside reads, so a read-optimised table that taxes inserts shows here",
		runNewflowPunt},
	{"apply-churn", 2, "intent applies toggling one chain back to back while a second goroutine injects live traffic: control-plane latency and its tax on the datapath",
		runApplyChurn},
	{"fabric-heal", 1, "kill, reconcile, probe, revive over a 4-switch fabric: the placement engine and per-switch transactions nothing else exercises",
		runFabricHeal},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runCtx carries one run's parameters and collects its result.
type runCtx struct {
	seed    int64
	seconds float64
	traced  bool
	res     *runResult
	outDir  string
}

// smoke reports a run too short to measure anything (the package's
// smoke test): such runs shrink their inputs so that set-up stays in
// proportion, and their numbers mean nothing.
func (rc *runCtx) smoke() bool { return rc.seconds < 1 }

// reps is how many times a micro-loop repeats; its row is the median.
func (rc *runCtx) reps() int {
	if rc.smoke() {
		return 2
	}
	return 5
}

// setups is how many times a run sets the system up at least; setup_s
// is the median. Twenty-one, not five: the first set-ups of a process
// run on cold caches and an empty heap, and a set-up takes anything
// from 0.7 to 2 times its median depending on where the collector's
// cycles fall in it.
func (rc *runCtx) setups() int {
	if rc.smoke() {
		return 2
	}
	return 21
}

// scaled shrinks a micro-loop's iteration count with the run length,
// so short smoke runs stay short; full-length runs use n as given.
func (rc *runCtx) scaled(n int) int {
	f := rc.seconds / 8
	if f > 1 {
		f = 1
	}
	if n = int(float64(n) * f); n < 64 {
		n = 64
	}
	return n
}

// measure runs a workload's measurement phase. A timed run is one
// untraced phase of the whole duration. A traced run first measures a
// quarter of the duration untraced as its own reference, then the rest
// with spans on: the difference between the two phases' lat_us_p50 is
// trace.overhead_pct, and the spans give the ledger. phase reports its
// figures into rc.res and returns the tracers it recorded into.
func (rc *runCtx) measure(phase func(seconds float64, traced bool) ([]*tracer, error)) error {
	if !rc.traced {
		_, err := phase(rc.seconds, false)
		return err
	}
	if _, err := phase(rc.seconds/4, false); err != nil {
		return err
	}
	ref := rc.res.Metrics["lat_us_p50"].Value
	tracers, err := phase(rc.seconds*3/4, true)
	if err != nil {
		return err
	}
	if p50 := rc.res.Metrics["lat_us_p50"]; ref > 0 {
		rc.res.set("trace.overhead_pct", 100*(p50.Value-ref)/ref, p50.N)
	}
	return rc.ledger(tracers...)
}

// ledger folds the run's spans into ledger.closure, holds it to the
// 0.9–1.1 gate and writes the trace file.
func (rc *runCtx) ledger(ts ...*tracer) error {
	l := buildLedger(ts...)
	c := l.closure()
	rc.res.set("ledger.closure", c, l.roots)
	// A smoke run records too few spans for the ratio to mean anything.
	if !rc.smoke() && (l.roots == 0 || c < 0.9 || c > 1.1) {
		rc.res.fail(1, "ledger.closure %.3f over %d operations: layer self-times must sum to 0.9–1.1 of end-to-end", c, l.roots)
	}
	for _, t := range ts {
		if t != nil && t.dropped > 0 {
			fmt.Fprintf(os.Stderr, "bench: %s: span buffer full, %d spans not recorded\n", rc.res.Workload, t.dropped)
		}
	}
	for _, name := range l.layerNames() {
		fmt.Fprintf(os.Stderr, "bench: %s: ledger %-28s %6.2f%% of end-to-end, %10.0f ns self per call, %d calls\n",
			rc.res.Workload, name, 100*float64(l.self[name])/float64(l.rootNs), l.selfPerCall(name), l.calls[name])
	}
	return writeTrace(filepath.Join(rc.outDir, rc.res.Workload+".trace.json"), ts...)
}

// runOne executes one run of one workload.
func runOne(w *workload, seed int64, seconds float64, traced bool, outDir string) (*runResult, error) {
	rc := &runCtx{seed: seed, seconds: seconds, traced: traced, outDir: outDir,
		res: newResult(w.name, seed, seconds, traced, w.workers)}
	if err := w.run(rc); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res := rc.res
	res.set("host.kernel_ns", host.kernelNs(), host.runs)
	if res.Attempted > 0 {
		res.set("fail_ratio", float64(res.Failed)/float64(res.Attempted), int(res.Attempted))
	}
	// Correct means nothing failed and something was attempted.
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// runSeconds is BENCHMARK.json's run_seconds and the default -seconds.
const runSeconds = 10

// specJSON renders BENCHMARK.json from the tables in this package.
func specJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	return append(b, '\n'), err
}

// resultSet is what -out writes and -compare reads: every run of one
// invocation.
type resultSet struct {
	Host hostInfo     `json:"host"`
	Runs []*runResult `json:"runs"`
}

func main() {
	// Load comes from one process with at most two busy goroutines;
	// more threads than that only adds scheduler noise.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	name := flag.String("workload", "", "run only this workload, once, and print the driver's result line last")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", runSeconds, "seconds one run measures")
	trace := flag.Int("trace", 0, "with -workload: 0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	runs := flag.Int("runs", 1, "without -workload: timed runs per workload, on seeds seed, seed+1, ..., each in its own process")
	out := flag.String("out", "", "write every run's full result to this JSON file (the input of -compare)")
	outDir := flag.String("outdir", filepath.Join("bench", "out"), "directory for trace files")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 on a regression")
	spec := flag.Bool("spec", false, "print BENCHMARK.json as the metric and workload tables define it")
	flag.Parse()

	if *spec {
		b, err := specJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		os.Stdout.Write(b)
		return
	}

	if err := mainErr(*name, *seed, *seconds, *trace, *runs, *out, *outDir, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, trace, runs int, out, outDir string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(args[0], args[1])
	}
	if seconds <= 0 || math.IsNaN(seconds) {
		return fmt.Errorf("-seconds must be positive")
	}
	set := resultSet{Host: thisHost()}
	bad := 0
	if name != "" {
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		res, err := runOne(w, seed, seconds, trace != 0, outDir)
		if err != nil {
			return err
		}
		res.print()
		line, err := res.driverLine()
		if err != nil {
			return err
		}
		fmt.Println(line)
		set.Runs = append(set.Runs, res)
		if !res.Correct {
			bad++
		}
	} else {
		// Every run is a process of its own, exactly as the driver runs
		// them: a run that shares a heap with the runs before it does
		// not measure the same thing.
		for i := range workloads {
			w := &workloads[i]
			for r := 0; r <= runs; r++ {
				// runs timed runs on consecutive seeds, then one traced.
				res, err := runChild(w, seed+int64(r%runs), seconds, r == runs, outDir)
				if err != nil {
					return err
				}
				set.Runs = append(set.Runs, res)
				if !res.Correct {
					bad++
				}
			}
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d run(s) failed verification", bad)
	}
	return nil
}

// runChild runs one workload once in a child process and returns the
// result the child saved. The child's report is passed through; its
// last line, the driver's result object, is not. A traced run measures
// for a quarter of the time.
func runChild(w *workload, seed int64, seconds float64, traced bool, outDir string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp := filepath.Join(outDir, fmt.Sprintf(".%s.%d.result.json", w.name, os.Getpid()))
	defer os.Remove(tmp)
	trace := "0"
	if traced {
		trace, seconds = "1", seconds/4
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", trace, "-outdir", outDir, "-out", tmp)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if len(lines) > 0 && bytes.HasPrefix(lines[len(lines)-1], []byte("{")) {
		lines = lines[:len(lines)-1]
	}
	os.Stdout.Write(append(bytes.Join(lines, []byte("\n")), '\n'))
	set, err := loadSet(tmp)
	if err != nil || len(set.Runs) != 1 {
		return nil, fmt.Errorf("%s seed %d: child left no result (%v, %v)", w.name, seed, runErr, err)
	}
	return set.Runs[0], nil
}
