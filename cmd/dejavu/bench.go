package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dejavu/internal/asic"
	"dejavu/internal/packet"
	"dejavu/internal/pktgen"
	"dejavu/internal/telemetry"
	"dejavu/internal/traffic"
)

// benchBaseline is the pre-optimization reference point: the locked,
// traced, per-packet-allocating Switch.Inject measured at commit
// cfc6047 (before the lock-free snapshot refactor) on the same
// container class CI uses. Committed so BENCH_pktpath.json always
// carries its own before/after comparison.
type benchBaseline struct {
	Commit      string  `json:"commit"`
	Description string  `json:"description"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int     `json:"bytes_per_op"`
	AllocsPerOp int     `json:"allocs_per_op"`
	Mpps        float64 `json:"mpps"`
}

var pktpathBaseline = benchBaseline{
	Commit:      "cfc6047",
	Description: "mutex-guarded traced Switch.Inject (pre lock-free refactor), 1-hop forwarder, single thread",
	NsPerOp:     533.4,
	BytesPerOp:  288,
	AllocsPerOp: 5,
	Mpps:        1.87,
}

// benchReport is the JSON document `dejavu bench -json` emits and the
// Makefile snapshots into BENCH_pktpath.json.
type benchReport struct {
	Bench     string         `json:"bench"`
	Generated string         `json:"generated"`
	Host      benchHost      `json:"host"`
	Workload  benchWorkload  `json:"workload"`
	Baseline  benchBaseline  `json:"baseline_before"`
	Traced    benchTraced    `json:"inject_traced"`
	Quiet     benchQuiet     `json:"inject_quiet"`
	Batch     benchBatch     `json:"batch_vs_single"`
	Telemetry benchTelemetry `json:"telemetry"`
	Runs      []benchRun     `json:"runs"`
}

type benchHost struct {
	Go         string `json:"go"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// benchRun is one row of the worker-scaling table: the engine result
// (which itself records the batch size and the GOMAXPROCS the run
// actually had) plus its throughput relative to the table's
// single-worker row.
type benchRun struct {
	traffic.Result
	ScalingVs1Worker float64 `json:"scaling_vs_1_worker"`
}

// benchBatch compares the per-packet hot path (InjectQuiet) against
// the batched one (InjectQuietBatch) on the same single-worker
// workload — the amortization win of loading the config snapshot,
// checking out pooled state and flushing telemetry once per burst.
type benchBatch struct {
	BatchSize         int     `json:"batch_size"`
	NsPerOpSingle     float64 `json:"ns_per_op_single"`
	NsPerOpBatch      float64 `json:"ns_per_op_batch"`
	SpeedupVsSingle   float64 `json:"speedup_vs_single"`
	AllocsPerPktBatch float64 `json:"allocs_per_pkt_batch"`
}

type benchWorkload struct {
	Packets    int   `json:"packets"`
	Recircs    int   `json:"recircs"`
	PayloadLen int   `json:"payload_len"`
	Flows      int   `json:"flows"`
	Seed       int64 `json:"seed"`
}

type benchTraced struct {
	NsPerOp        float64 `json:"ns_per_op"`
	Mpps           float64 `json:"mpps"`
	Recirculations uint64  `json:"recirculations"`
}

type benchQuiet struct {
	NsPerOp           float64 `json:"ns_per_op"`
	Mpps              float64 `json:"mpps"`
	AllocsPerOp       float64 `json:"allocs_per_op"`
	Recirculations    uint64  `json:"recirculations"`
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline"`
	SpeedupVsTraced   float64 `json:"speedup_vs_traced"`
}

// benchTelemetry is the dvtel overhead section: the quiet hot path
// with datapath counters detached vs attached (same workload, one
// worker). The ISSUE budget is <=10% ns/pkt overhead and 0 allocs/pkt
// with counters on.
type benchTelemetry struct {
	NsPerOpOff    float64 `json:"ns_per_op_off"`
	NsPerOpOn     float64 `json:"ns_per_op_on"`
	OverheadPct   float64 `json:"overhead_pct"`
	AllocsPerOpOn float64 `json:"allocs_per_op_on"`
}

// runBench drives the parallel traffic engine over the synthetic
// forwarder pipeline and reports packet rates — the measured side of
// the ROADMAP "as fast as the hardware allows" goal.
func runBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workers := fs.String("workers", "1,2,4,8", "comma-separated worker counts to sweep")
	packets := fs.Int("packets", 200_000, "packets per run")
	batch := fs.Int("batch", 64, "burst size for InjectQuietBatch in the worker sweep (1 = per-packet InjectQuiet)")
	gomaxprocs := fs.Int("gomaxprocs", 0, "set runtime.GOMAXPROCS for the sweep (0 = leave the runtime default)")
	reps := fs.Int("reps", 3, "repetitions per configuration; the best run is reported")
	recircs := fs.Int("recircs", 0, "forced recirculations per packet (loopback passes)")
	payload := fs.Int("payload", 0, "payload bytes per packet")
	flows := fs.Int("flows", 64, "total distinct flows, split across workers so every sweep row offers the same aggregate workload")
	seed := fs.Int64("seed", 1, "flow generator seed")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	fs.Parse(args)

	var workerCounts []int
	for _, w := range strings.Split(*workers, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(w))
		if err != nil || n < 1 {
			return fmt.Errorf("bench: bad -workers entry %q", w)
		}
		workerCounts = append(workerCounts, n)
	}
	if *batch < 1 || *reps < 1 {
		return fmt.Errorf("bench: -batch and -reps must be >= 1")
	}
	if *gomaxprocs > 0 {
		runtime.GOMAXPROCS(*gomaxprocs)
	}

	prof := asic.Wedge100B()
	opts := traffic.ForwarderOpts{Recircs: *recircs}

	// bestOf runs one configuration reps times on a fresh switch and
	// keeps the fastest run, so a scheduler hiccup doesn't masquerade
	// as a scaling regression (or a win). The flow budget is split
	// across workers (Config.Flows is per worker): without the split an
	// 8-worker row would stamp from 8x as many distinct templates as
	// the 1-worker row and the sweep would measure cache footprint, not
	// worker count.
	bestOf := func(w, b int) (traffic.Result, error) {
		flowsPer := *flows / w
		if flowsPer < 1 {
			flowsPer = 1
		}
		var best traffic.Result
		for r := 0; r < *reps; r++ {
			res, err := traffic.Run(traffic.NewBenchSwitch(prof, opts), traffic.Config{
				Workers: w, Packets: *packets, Seed: *seed, PayloadLen: *payload, Flows: flowsPer, Batch: b,
			})
			if err != nil {
				return traffic.Result{}, err
			}
			if r == 0 || res.NsPerPkt < best.NsPerPkt {
				best = res
			}
		}
		return best, nil
	}

	// Traced reference: the debugging path with a full per-step trace.
	tracedNs, tracedMpps, tracedRecircs, err := measureTraced(prof, opts, min(*packets, 100_000), *seed, *payload)
	if err != nil {
		return err
	}

	// Steady-state allocations on the quiet path (the committed budget
	// is 0 — see TestInjectQuietAllocBudget), with
	// telemetry off and on, and per packet on the batched path.
	quietAllocs, err := measureQuietAllocs(prof, opts, *seed, *payload, nil)
	if err != nil {
		return err
	}
	telAllocs, err := measureQuietAllocs(prof, opts, *seed, *payload, telemetry.NewDatapath(prof.Pipelines))
	if err != nil {
		return err
	}
	batchAllocs, err := measureBatchAllocs(prof, opts, *seed, *payload, *batch)
	if err != nil {
		return err
	}

	// Telemetry overhead: the same single-worker run with counters off
	// vs on. Interleave three repetitions of each and keep the fastest
	// so a scheduler hiccup in one run doesn't masquerade as overhead.
	var offNs, onNs float64
	for rep := 0; rep < 3; rep++ {
		telOff, err := traffic.Run(traffic.NewBenchSwitch(prof, opts), traffic.Config{
			Workers: 1, Packets: *packets, Seed: *seed, PayloadLen: *payload, Flows: *flows,
		})
		if err != nil {
			return err
		}
		telOn, err := traffic.Run(traffic.NewBenchSwitch(prof, opts), traffic.Config{
			Workers: 1, Packets: *packets, Seed: *seed, PayloadLen: *payload, Flows: *flows,
			Telemetry: telemetry.NewDatapath(prof.Pipelines),
		})
		if err != nil {
			return err
		}
		if rep == 0 || telOff.NsPerPkt < offNs {
			offNs = telOff.NsPerPkt
		}
		if rep == 0 || telOn.NsPerPkt < onNs {
			onNs = telOn.NsPerPkt
		}
	}

	// Batch-vs-single: the same single-worker workload per-packet and
	// in bursts. The single side doubles as the inject_quiet headline.
	single1, err := bestOf(1, 1)
	if err != nil {
		return err
	}
	batch1, err := bestOf(1, *batch)
	if err != nil {
		return err
	}

	rep := benchReport{
		Bench:     "pktpath",
		Generated: time.Now().UTC().Format(time.RFC3339),
		Host:      benchHost{Go: runtime.Version(), CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)},
		Workload:  benchWorkload{Packets: *packets, Recircs: *recircs, PayloadLen: *payload, Flows: *flows, Seed: *seed},
		Baseline:  pktpathBaseline,
		Traced:    benchTraced{NsPerOp: tracedNs, Mpps: tracedMpps, Recirculations: tracedRecircs},
		Quiet: benchQuiet{
			NsPerOp:           single1.NsPerPkt,
			Mpps:              single1.Mpps,
			AllocsPerOp:       quietAllocs,
			Recirculations:    single1.Recirculated,
			SpeedupVsBaseline: single1.Mpps / pktpathBaseline.Mpps,
			SpeedupVsTraced:   single1.Mpps / tracedMpps,
		},
		Batch: benchBatch{
			BatchSize:         *batch,
			NsPerOpSingle:     single1.NsPerPkt,
			NsPerOpBatch:      batch1.NsPerPkt,
			SpeedupVsSingle:   single1.NsPerPkt / batch1.NsPerPkt,
			AllocsPerPktBatch: batchAllocs,
		},
		Telemetry: benchTelemetry{
			NsPerOpOff:    offNs,
			NsPerOpOn:     onNs,
			OverheadPct:   (onNs - offNs) / offNs * 100,
			AllocsPerOpOn: telAllocs,
		},
	}

	// Worker-scaling table: every row uses the same batch size so the
	// sweep isolates worker count.
	var oneWorker float64
	for _, w := range workerCounts {
		res, err := bestOf(w, *batch)
		if err != nil {
			return err
		}
		if w == 1 {
			oneWorker = res.Mpps
		}
		row := benchRun{Result: res}
		if oneWorker > 0 {
			row.ScalingVs1Worker = res.Mpps / oneWorker
		}
		rep.Runs = append(rep.Runs, row)
		if !*jsonOut {
			fmt.Println(res.String())
		}
	}

	if *jsonOut {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	fmt.Printf("traced reference: %.0f ns/pkt (%.3f Mpps)\n", tracedNs, tracedMpps)
	fmt.Printf("quiet hot path:   %.0f ns/pkt (%.3f Mpps), %.2f allocs/pkt, %.2fx vs pre-refactor baseline (%.2f Mpps @ %s)\n",
		rep.Quiet.NsPerOp, rep.Quiet.Mpps, quietAllocs, rep.Quiet.SpeedupVsBaseline,
		pktpathBaseline.Mpps, pktpathBaseline.Commit)
	fmt.Printf("batched path:     %.0f ns/pkt single -> %.0f ns/pkt at batch=%d (%.2fx), %.3f allocs/pkt batched\n",
		rep.Batch.NsPerOpSingle, rep.Batch.NsPerOpBatch, *batch, rep.Batch.SpeedupVsSingle, batchAllocs)
	fmt.Printf("telemetry:        %.0f ns/pkt off -> %.0f ns/pkt on (%.1f%% overhead), %.2f allocs/pkt with counters on\n",
		rep.Telemetry.NsPerOpOff, rep.Telemetry.NsPerOpOn, rep.Telemetry.OverheadPct, telAllocs)
	return nil
}

// measureBatchAllocs reports steady-state heap allocations per packet
// on the batched hot path (InjectQuietBatch with telemetry attached —
// the production configuration). The batch-path budget is 0 allocs/pkt.
func measureBatchAllocs(prof asic.Profile, opts traffic.ForwarderOpts, seed int64, payloadLen, batch int) (float64, error) {
	sw := traffic.NewBenchSwitch(prof, opts)
	sw.SetTelemetry(telemetry.NewDatapath(prof.Pipelines))
	gen := pktgen.New(pktgen.Config{Seed: seed, PayloadLen: payloadLen})
	flows := gen.Flows(16)
	templates := make([]packet.Parsed, len(flows))
	for i, f := range flows {
		gen.PacketInto(f, &templates[i])
	}
	scratch := make([]packet.Parsed, batch)
	ptrs := make([]*packet.Parsed, batch)
	for i := range scratch {
		ptrs[i] = &scratch[i]
	}
	inject := func(rounds int) error {
		for r := 0; r < rounds; r++ {
			for i := range scratch {
				scratch[i].CopyFrom(&templates[(r*batch+i)%len(templates)])
			}
			if br := sw.InjectQuietBatch(0, ptrs); br.Err != nil {
				return br.Err
			}
		}
		return nil
	}
	if err := inject(200); err != nil { // warm pools
		return 0, err
	}
	rounds := 50_000 / batch
	if rounds < 1 {
		rounds = 1
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := inject(rounds); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(rounds*batch), nil
}

// measureTraced times the traced Inject path single-threaded and
// tallies the recirculations it performed.
func measureTraced(prof asic.Profile, opts traffic.ForwarderOpts, packets int, seed int64, payloadLen int) (nsPerOp, mpps float64, recircs uint64, err error) {
	sw := traffic.NewBenchSwitch(prof, opts)
	gen := pktgen.New(pktgen.Config{Seed: seed, PayloadLen: payloadLen})
	flows := gen.Flows(64)
	templates := make([]packet.Parsed, len(flows))
	for i, f := range flows {
		gen.PacketInto(f, &templates[i])
	}
	var scratch packet.Parsed
	start := time.Now()
	for i := 0; i < packets; i++ {
		scratch.CopyFrom(&templates[i%len(templates)])
		tr, err := sw.Inject(0, &scratch)
		if err != nil {
			return 0, 0, 0, err
		}
		recircs += uint64(tr.Recirculations)
	}
	dur := time.Since(start)
	return float64(dur.Nanoseconds()) / float64(packets), float64(packets) / dur.Seconds() / 1e6, recircs, nil
}

// measureQuietAllocs reports steady-state heap allocations per
// InjectQuiet call via the runtime's malloc counter, optionally with a
// telemetry counter set attached.
func measureQuietAllocs(prof asic.Profile, opts traffic.ForwarderOpts, seed int64, payloadLen int, tel *telemetry.Datapath) (float64, error) {
	sw := traffic.NewBenchSwitch(prof, opts)
	if tel != nil {
		sw.SetTelemetry(tel)
	}
	gen := pktgen.New(pktgen.Config{Seed: seed, PayloadLen: payloadLen})
	flows := gen.Flows(16)
	templates := make([]packet.Parsed, len(flows))
	for i, f := range flows {
		gen.PacketInto(f, &templates[i])
	}
	var scratch packet.Parsed
	inject := func(n int) error {
		for i := 0; i < n; i++ {
			scratch.CopyFrom(&templates[i%len(templates)])
			if _, err := sw.InjectQuiet(0, &scratch); err != nil {
				return err
			}
		}
		return nil
	}
	if err := inject(10_000); err != nil { // warm pools
		return 0, err
	}
	const n = 50_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := inject(n); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n, nil
}
