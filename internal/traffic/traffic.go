// Package traffic is a parallel traffic engine for the behavioural
// switch: N worker goroutines stamp packets out of pre-drawn pktgen
// flow templates and push them through Switch.InjectQuiet, aggregating
// delivered/dropped/Mpps counters. It is the software stand-in for the
// paper's hardware packet generator (§5) and the measurement harness
// behind `dejavu bench` and the pktpath experiment table.
//
// The engine measures the *model's* packet rate — how fast this
// reproduction executes pipelet programs — not the ASIC's line rate;
// the paper's point is precisely that the hardware number is
// independent of chain length while a software path (like this one)
// is not.
package traffic

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"dejavu/internal/asic"
	"dejavu/internal/packet"
	"dejavu/internal/pktgen"
	"dejavu/internal/telemetry"
)

// clock is the engine's wall-clock seam. Runs are deterministic in
// everything but elapsed time; tests that need a fixed duration swap
// this for a fake.
var clock = time.Now

// Config parameterizes one engine run.
type Config struct {
	// Workers is the number of injection goroutines; 0 means
	// GOMAXPROCS.
	Workers int
	// Packets is the total injection count across all workers; 0 means
	// 100 000.
	Packets int
	// Ports are the front-panel injection ports, assigned to workers
	// round-robin; empty assigns each worker its own usable front-panel
	// port (port w for worker w), so parallel workers don't all hammer
	// port 0's counters.
	Ports []asic.PortID
	// Flows is the number of distinct five-tuple templates per worker;
	// 0 means 64.
	Flows int
	// Seed makes the generated flows reproducible; worker w draws from
	// Seed+w.
	Seed int64
	// PayloadLen is the payload bytes per packet.
	PayloadLen int
	// Batch is the burst size handed to Switch.InjectQuietBatch; 0 or 1
	// injects packet-at-a-time through InjectQuiet. Batching amortizes
	// the per-packet snapshot load, pool checkout and telemetry flush
	// across the burst.
	Batch int
	// Telemetry, when non-nil, is attached to the switch before the
	// workers start (and left attached), so benches and soaks can read
	// datapath counters and histograms for exactly the traffic they
	// offered.
	Telemetry *telemetry.Datapath
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Packets == 0 {
		c.Packets = 100_000
	}
	if c.Flows == 0 {
		c.Flows = 64
	}
	// Ports deliberately has no static default: Run derives per-worker
	// ports from the switch profile (defaultPorts), because a fixed
	// []{0} made every worker share one port's counters.
	return c
}

func (c Config) validate() error {
	if c.Workers < 0 || c.Packets < 0 || c.Flows < 0 || c.PayloadLen < 0 || c.Batch < 0 {
		return fmt.Errorf("traffic: negative config value: %+v", c)
	}
	return nil
}

// defaultPorts picks one injection port per worker, round-robin over
// the switch's usable front-panel ports (administratively up, not in
// loopback) — so by default worker w owns port w's ingress counters
// instead of every worker contending on port 0.
func defaultPorts(sw *asic.Switch, workers int) []asic.PortID {
	prof := sw.Profile()
	ports := make([]asic.PortID, 0, workers)
	for p := 0; p < prof.TotalPorts() && len(ports) < workers; p++ {
		id := asic.PortID(p)
		if sw.LoopbackModeOf(id) == asic.LoopbackOff && sw.PortIsUp(id) {
			ports = append(ports, id)
		}
	}
	return ports
}

// Result aggregates one engine run.
type Result struct {
	Workers int `json:"workers"`
	Packets int `json:"packets"`
	// Batch is the burst size used (1 = packet-at-a-time InjectQuiet).
	Batch int `json:"batch"`
	// Gomaxprocs records the scheduler parallelism the run actually had
	// — multi-worker Mpps is only interpretable against it.
	Gomaxprocs int           `json:"gomaxprocs"`
	Duration   time.Duration `json:"duration_ns"`

	Injected     uint64 `json:"injected"`       // packets offered to the switch
	Delivered    uint64 `json:"delivered"`      // left through a front-panel port
	Dropped      uint64 `json:"dropped"`        // dropped inside the switch
	ToCPU        uint64 `json:"to_cpu"`         // punted to the control plane
	Errors       uint64 `json:"errors"`         // refused at the port
	Recirculated uint64 `json:"recirculations"` // loopback passes across all packets

	Mpps     float64 `json:"mpps"`      // injected rate, millions of packets/s
	NsPerPkt float64 `json:"ns_per_op"` // wall time per injected packet
}

// DropRate returns dropped/injected in [0,1].
func (r Result) DropRate() float64 {
	if r.Injected == 0 {
		return 0
	}
	return float64(r.Dropped) / float64(r.Injected)
}

// String renders the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("workers=%d batch=%d gomaxprocs=%d packets=%d duration=%v rate=%.3f Mpps (%.0f ns/pkt) delivered=%d dropped=%d cpu=%d errors=%d",
		r.Workers, r.Batch, r.Gomaxprocs, r.Packets, r.Duration.Round(time.Millisecond), r.Mpps, r.NsPerPkt,
		r.Delivered, r.Dropped, r.ToCPU, r.Errors)
}

// tally is one worker's local counters, summed after the run. The pad
// rounds each tally up past two cache lines so adjacent workers'
// counters never share one: the slice is a single contiguous
// allocation, and without the pad workers w and w+1 would both own
// pieces of the same 64-byte line (exactly the false sharing the
// per-worker design is meant to avoid).
type tally struct {
	injected, delivered, dropped, toCPU, errors, recircs uint64

	_ [128 - 6*8]byte
}

// Run drives cfg.Packets packets through the switch from cfg.Workers
// goroutines and returns the aggregated counters. Each worker owns a
// generator, a set of flow templates and one scratch buffer, so the
// steady-state loop allocates nothing; workers share only the switch
// itself, whose packet path is lock-free. Per-worker setup (template
// construction) happens before the clock starts: all workers build
// their templates, rendezvous on a start barrier, and only then does
// the measured window open — so an N-worker run is not charged N
// setups of dead time.
func Run(sw *asic.Switch, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if len(cfg.Ports) == 0 {
		if cfg.Ports = defaultPorts(sw, cfg.Workers); len(cfg.Ports) == 0 {
			return Result{}, fmt.Errorf("traffic: no usable front-panel injection port")
		}
	}

	// Fail fast on a dead or misconfigured injection port rather than
	// counting cfg.Packets errors.
	prof := sw.Profile()
	for _, p := range cfg.Ports {
		if !prof.ValidPort(p) || asic.IsRecircPort(p) || p == asic.PortCPU {
			return Result{}, fmt.Errorf("traffic: cannot inject on port %d", p)
		}
		if sw.LoopbackModeOf(p) != asic.LoopbackOff {
			return Result{}, fmt.Errorf("traffic: injection port %d is in loopback mode", p)
		}
	}

	if cfg.Telemetry != nil {
		sw.SetTelemetry(cfg.Telemetry)
	}

	batch := cfg.Batch
	if batch < 1 {
		batch = 1
	}
	per := cfg.Packets / cfg.Workers
	extra := cfg.Packets % cfg.Workers
	tallies := make([]tally, cfg.Workers)

	var wg, ready sync.WaitGroup
	begin := make(chan struct{})
	for w := 0; w < cfg.Workers; w++ {
		n := per
		if w < extra {
			n++
		}
		port := cfg.Ports[w%len(cfg.Ports)]
		wg.Add(1)
		ready.Add(1)
		go func(w, n int, port asic.PortID) {
			defer wg.Done()
			gen := pktgen.New(pktgen.Config{Seed: cfg.Seed + int64(w), PayloadLen: cfg.PayloadLen})
			flows := gen.Flows(cfg.Flows)
			templates := make([]packet.Parsed, len(flows))
			for i, f := range flows {
				gen.PacketInto(f, &templates[i])
			}
			scratch := make([]packet.Parsed, batch)
			ptrs := make([]*packet.Parsed, batch)
			for i := range scratch {
				ptrs[i] = &scratch[i]
			}
			t := &tallies[w]
			ready.Done()
			<-begin
			if batch == 1 {
				for i := 0; i < n; i++ {
					scratch[0].CopyFrom(&templates[i%len(templates)])
					t.injected++
					res, err := sw.InjectQuiet(port, &scratch[0])
					t.recircs += uint64(res.Recirculations)
					switch {
					case err != nil:
						t.errors++
					case res.Dropped:
						t.dropped++
					case res.ToCPU > 0:
						t.toCPU++
					default:
						t.delivered++
					}
				}
				return
			}
			for done := 0; done < n; {
				k := batch
				if left := n - done; left < k {
					k = left
				}
				for i := 0; i < k; i++ {
					scratch[i].CopyFrom(&templates[(done+i)%len(templates)])
				}
				br := sw.InjectQuietBatch(port, ptrs[:k])
				t.injected += uint64(br.Injected)
				t.delivered += uint64(br.Delivered)
				t.dropped += uint64(br.Dropped)
				t.toCPU += uint64(br.ToCPU)
				t.errors += uint64(br.Errors)
				t.recircs += uint64(br.Recirculations)
				done += k
			}
		}(w, n, port)
	}
	ready.Wait()
	start := clock()
	close(begin)
	wg.Wait()
	dur := clock().Sub(start)

	res := Result{Workers: cfg.Workers, Packets: cfg.Packets, Batch: batch,
		Gomaxprocs: runtime.GOMAXPROCS(0), Duration: dur}
	for _, t := range tallies {
		res.Injected += t.injected
		res.Delivered += t.delivered
		res.Dropped += t.dropped
		res.ToCPU += t.toCPU
		res.Errors += t.errors
		res.Recirculated += t.recircs
	}
	if dur > 0 && res.Injected > 0 {
		res.Mpps = float64(res.Injected) / dur.Seconds() / 1e6
		res.NsPerPkt = float64(dur.Nanoseconds()) / float64(res.Injected)
	}
	return res, nil
}
