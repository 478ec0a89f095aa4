package telemetry

import (
	"strconv"
	"sync/atomic"
)

// DropReason classifies why the datapath lost a packet — the typed
// counterpart of asic.Trace.DropReason's free-form string, so drops
// can be counted without formatting on the hot path.
type DropReason uint8

// Drop reasons, one per drop site in the behavioural switch.
const (
	DropNone           DropReason = iota
	DropIngress                   // dropped by an ingress pipelet program
	DropEgress                    // dropped by an egress pipelet program
	DropNoEgress                  // ingress chose no egress port
	DropInvalidPort               // egress port outside the profile
	DropPassBudget                // routing loop: pass budget exhausted
	DropPortDown                  // egress port administratively down
	DropWire                      // lost on the wire (fault injection)
	DropRecircDead                // recirculated into a dead loopback port
	DropRecircOverload            // recirculation queue overload
	DropRefused                   // refused at the ingress port (admission)
	DropCPUQueueFull              // punted while the CPU queue was at its cap
	numDropReasons
)

// String returns the label value used in the drop-counter exposition.
func (d DropReason) String() string {
	switch d {
	case DropNone:
		return "none"
	case DropIngress:
		return "ingress"
	case DropEgress:
		return "egress"
	case DropNoEgress:
		return "no_egress_port"
	case DropInvalidPort:
		return "invalid_egress_port"
	case DropPassBudget:
		return "pass_budget"
	case DropPortDown:
		return "egress_port_down"
	case DropWire:
		return "wire_loss"
	case DropRecircDead:
		return "recirc_dead_port"
	case DropRecircOverload:
		return "recirc_overload"
	case DropRefused:
		return "refused_at_port"
	case DropCPUQueueFull:
		return "cpu_queue_full"
	}
	return "unknown"
}

// MarshalText renders the reason label, so JSON maps keyed by
// DropReason use the exposition label values.
func (d DropReason) MarshalText() ([]byte, error) { return []byte(d.String()), nil }

// datapathShards is the number of independent counter shards. Parallel
// injectors hash onto shards so the hot path's atomic adds stay mostly
// uncontended; Gather merges shards into one logical counter set.
const datapathShards = 8

// MaxPipelines bounds the per-pipeline delta arrays a packet context
// carries for batched counting. Real RMT silicon tops out at four
// pipelines; callers with exotic profiles fall back to the unbatched
// per-event methods for pipelines beyond the bound.
const MaxPipelines = 8

// DatapathDelta accumulates one packet's per-pipeline events in plain
// (non-atomic) memory while the packet traverses the switch, so the
// hot path pays for atomics once per packet (Flush) instead of once
// per event. uint16 is ample: the ASIC's pass budget caps traversals
// per packet at 64.
type DatapathDelta struct {
	Ingress   [MaxPipelines]uint16
	Egress    [MaxPipelines]uint16
	Recircs   [MaxPipelines]uint16
	Resubmits [MaxPipelines]uint16
}

// DatapathShard holds one shard's counters. All methods are wait-free
// atomic updates with zero allocation — the contract that keeps
// InjectQuiet at 0 allocs/pkt with telemetry enabled.
//
// The layout is tuned so the common packet (one ingress pass, one
// egress pass, delivered, no recirculation) costs exactly ONE atomic
// add, into the hot-path matrix (FastDoneN). Packets that do anything
// unusual take the batched slow path — one packed pass-counter add per
// visited pipeline (Flush) plus the histogram/disposition adds
// (PacketDone). Everything else is derived at snapshot time:
// delivered, emitted, the recirculation histogram's zero bucket, the
// histogram counts, and the fast-path packets' contribution to passes
// and both histograms.
type DatapathShard struct {
	// passes[pipeline] packs ingress traversals in the high 32 bits and
	// egress traversals in the low 32 bits, so the per-packet flush is
	// one atomic add per visited pipeline. The packing caps each shard
	// at 2^32 passes per pipeline per direction before the egress field
	// carries into the ingress field — days of sustained model traffic.
	passes []atomic.Uint64
	// recircs / resubmits are per-pipeline event counters.
	recircs   []atomic.Uint64
	resubmits []atomic.Uint64

	drops [numDropReasons]atomic.Uint64

	// hot[pi*pipelines+pe] counts fast-path packets: delivered in one
	// ingress pass through pipeline pi and one egress pass through pe,
	// no recirculation, resubmission or extra copies. Such a packet is
	// fully described by that pair — its latency is the constant set by
	// SetFastPathLatency — so the hot path pays a single atomic add and
	// Snapshot folds the matrix back into passes, dispositions and both
	// histograms.
	hot       []atomic.Uint64
	pipelines int

	dropped atomic.Uint64 // packets lost inside the switch
	toCPU   atomic.Uint64 // packets punted to the control plane
	refused atomic.Uint64 // packets refused at the ingress port
	// emittedExtra is the signed difference between wire copies emitted
	// and the one copy a delivered packet implies — mirror copies and
	// multi-emits land here; the common delivered packet adds nothing.
	// Snapshot reconstructs emitted = delivered + extra.
	emittedExtra atomic.Int64

	latency *Histogram // modelled pipeline latency, ns
	recirc  *Histogram // recirculations per completed packet; zero skipped

	// pad defeats false sharing between adjacent shards.
	_ [64]byte
}

// IngressPass counts one ingress-pipelet traversal.
//
//dv:hotpath
func (s *DatapathShard) IngressPass(pipeline int) { s.passes[pipeline].Add(1 << 32) }

// EgressPass counts one egress-pipelet traversal.
//
//dv:hotpath
func (s *DatapathShard) EgressPass(pipeline int) { s.passes[pipeline].Add(1) }

// Recirculation counts one loopback pass through a pipeline.
//
//dv:hotpath
func (s *DatapathShard) Recirculation(pipeline int) { s.recircs[pipeline].Add(1) }

// Resubmission counts one ingress resubmission in a pipeline.
//
//dv:hotpath
func (s *DatapathShard) Resubmission(pipeline int) { s.resubmits[pipeline].Add(1) }

// Refused counts a packet rejected at the ingress port before it
// entered a pipeline.
//
//dv:hotpath
func (s *DatapathShard) Refused() { s.refused.Add(1) }

// FastDoneN records n fast-path packets — each delivered via exactly
// one ingress pass through pipeline pi and one egress pass through pe,
// with no recirculation, resubmission or extra wire copies — in one
// atomic add, so a whole burst of common packets costs a single update.
// It reports false (and records nothing) when the pair is out of range;
// the caller then accounts the packets through Flush/PacketDone.
//
//dv:hotpath
func (s *DatapathShard) FastDoneN(pi, pe int, n uint64) bool {
	if pi < 0 || pi >= s.pipelines || pe < 0 || pe >= s.pipelines {
		return false
	}
	if n != 0 {
		s.hot[pi*s.pipelines+pe].Add(n)
	}
	return true
}

// RefusedN counts n packets rejected at the ingress port in one atomic
// add (a whole batch refused by a down or misconfigured port).
//
//dv:hotpath
func (s *DatapathShard) RefusedN(n uint64) { s.refused.Add(n) }

// Flush folds a packet's accumulated per-pipeline deltas into the
// shard: one atomic add per visited pipeline, none for untouched ones.
// The delta is left as-is; callers that reuse it zero it themselves
// (the asic's pooled contexts are wiped wholesale per packet).
//
//dv:hotpath
func (s *DatapathShard) Flush(d *DatapathDelta) {
	n := len(s.passes)
	if n > MaxPipelines {
		n = MaxPipelines
	}
	for p := 0; p < n; p++ {
		if ie := uint64(d.Ingress[p])<<32 | uint64(d.Egress[p]); ie != 0 {
			s.passes[p].Add(ie)
		}
		if r := d.Recircs[p]; r != 0 {
			s.recircs[p].Add(uint64(r))
		}
		if r := d.Resubmits[p]; r != 0 {
			s.resubmits[p].Add(uint64(r))
		}
	}
}

// PacketDone records the final disposition of one completed traversal:
// the latency observation (which doubles as the completed-packet
// count), the recirculation observation when there was one, and the
// rare-path disposition counters. Delivered packets increment nothing
// beyond the latency histogram — Snapshot derives delivered from it.
//
// The write order matters: the latency observation lands first so a
// concurrent Snapshot (which reads dispositions before latency) never
// sees more dropped/punted packets than completed ones.
//
//dv:hotpath
func (s *DatapathShard) PacketDone(drop DropReason, toCPU, recircs, emitted int, latencyNs int64) {
	s.latency.Observe(uint64(latencyNs))
	if recircs > 0 {
		s.recirc.Observe(uint64(recircs))
	}
	implied := 0
	switch {
	case drop != DropNone:
		s.dropped.Add(1)
		s.drops[drop].Add(1)
	case toCPU > 0:
		s.toCPU.Add(1)
	default:
		implied = 1 // delivered: derived, not counted
	}
	if extra := emitted - implied; extra != 0 {
		s.emittedExtra.Add(int64(extra))
	}
}

// Datapath is the switch-level counter aggregate the asic hot path
// feeds: per-pipelet pass counters, per-pipeline recirculation and
// resubmission counters, typed drop counters, and latency /
// recirculation histograms. It follows the same publication pattern as
// the switch's PortStats — preallocated atomics behind an atomically
// swapped config pointer — so enabling it adds no locks and no
// allocations to the packet path.
type Datapath struct {
	pipelines int
	shards    [datapathShards]DatapathShard

	// fastL is the modelled latency of a fast-path packet (one ingress
	// + TM + one egress traversal) and fastBucket its precomputed
	// latency bucket; Snapshot uses them to fold the hot matrix into
	// the latency histogram. Set once at attach time (SetFastPathLatency).
	fastL      uint64
	fastBucket int
}

// NewDatapath builds a counter set for a switch with the given number
// of pipelines.
func NewDatapath(pipelines int) *Datapath {
	d := &Datapath{pipelines: pipelines}
	for i := range d.shards {
		sh := &d.shards[i]
		sh.passes = make([]atomic.Uint64, pipelines)
		sh.recircs = make([]atomic.Uint64, pipelines)
		sh.resubmits = make([]atomic.Uint64, pipelines)
		sh.hot = make([]atomic.Uint64, pipelines*pipelines)
		sh.pipelines = pipelines
		sh.latency = NewHistogram(LatencyBoundsNs)
		sh.recirc = NewHistogram(RecircBounds)
	}
	return d
}

// Pipelines returns the pipeline count this counter set was built for
// — callers batching fast-path classification check eligibility
// against it once per burst instead of per packet.
func (d *Datapath) Pipelines() int { return d.pipelines }

// SetFastPathLatency declares the modelled latency (ns) of a fast-path
// packet — the switch profile's ingress + traffic-manager + egress
// latency — so snapshots can place FastDoneN packets in the latency
// histogram. The attaching switch calls this before counting starts;
// changing it while counters hold fast-path packets would re-bucket
// them retroactively.
func (d *Datapath) SetFastPathLatency(ns uint64) {
	d.fastL = ns
	d.fastBucket = 0
	for d.fastBucket < len(LatencyBoundsNs) && ns > LatencyBoundsNs[d.fastBucket] {
		d.fastBucket++
	}
}

// Shard maps a hint (any value that is stable per worker, e.g. the
// address of a pooled per-packet context) onto one counter shard.
//
//dv:hotpath
func (d *Datapath) Shard(hint uintptr) *DatapathShard {
	// Pooled objects are at least 64 bytes apart; shift before masking
	// so neighbouring pool entries spread over shards.
	return &d.shards[(hint>>6)%datapathShards]
}

// DatapathSnapshot is a merged point-in-time copy of all shards. The
// JSON shape is part of the `dejavu chaos -json` schema (docs/CLI.md).
type DatapathSnapshot struct {
	Pipelines int `json:"pipelines"`
	// IngressPasses / EgressPasses are indexed by pipeline.
	IngressPasses []uint64              `json:"ingress_passes"`
	EgressPasses  []uint64              `json:"egress_passes"`
	Recircs       []uint64              `json:"recirculations"`
	Resubmits     []uint64              `json:"resubmissions"`
	Drops         map[DropReason]uint64 `json:"drops"` // zero-count reasons omitted
	Delivered     uint64                `json:"delivered"`
	Dropped       uint64                `json:"dropped"`
	ToCPU         uint64                `json:"to_cpu"`
	Refused       uint64                `json:"refused"`
	Emitted       uint64                `json:"emitted"`
	Latency       HistogramSnapshot     `json:"latency_ns"`
	Recirculation HistogramSnapshot     `json:"recirculation"`
}

// Completed returns the number of packets with a recorded disposition.
func (s DatapathSnapshot) Completed() uint64 { return s.Delivered + s.Dropped + s.ToCPU }

// Snapshot merges every shard into one consistent-enough view (shards
// are read without stopping writers; counters may be torn across
// shards by in-flight packets, never within one atomic).
//
// Three quantities the hot path never counts are derived here:
// delivered = completed − dropped − punted (completed being the
// latency histogram's total), emitted = delivered + the extra-copy
// balance, and the recirculation histogram's zero bucket = completed −
// packets that recirculated at least once. Per shard, dispositions and
// the recirculation buckets are read before the latency histogram —
// the mirror of PacketDone's write order — so the derivations never
// underflow; they are clamped anyway.
func (d *Datapath) Snapshot() DatapathSnapshot {
	s := DatapathSnapshot{
		Pipelines:     d.pipelines,
		IngressPasses: make([]uint64, d.pipelines),
		EgressPasses:  make([]uint64, d.pipelines),
		Recircs:       make([]uint64, d.pipelines),
		Resubmits:     make([]uint64, d.pipelines),
		Drops:         make(map[DropReason]uint64),
		Latency:       HistogramSnapshot{Bounds: LatencyBoundsNs, Counts: make([]uint64, len(LatencyBoundsNs)+1)},
		Recirculation: HistogramSnapshot{Bounds: RecircBounds, Counts: make([]uint64, len(RecircBounds)+1)},
	}
	var extra int64
	var fast uint64
	for i := range d.shards {
		sh := &d.shards[i]
		for p := 0; p < d.pipelines; p++ {
			ie := sh.passes[p].Load()
			s.IngressPasses[p] += ie >> 32
			s.EgressPasses[p] += ie & 0xFFFFFFFF
			s.Recircs[p] += sh.recircs[p].Load()
			s.Resubmits[p] += sh.resubmits[p].Load()
		}
		for r := DropReason(1); r < numDropReasons; r++ {
			if c := sh.drops[r].Load(); c > 0 {
				s.Drops[r] += c
			}
		}
		s.Dropped += sh.dropped.Load()
		s.ToCPU += sh.toCPU.Load()
		s.Refused += sh.refused.Load()
		extra += sh.emittedExtra.Load()
		for pi := 0; pi < d.pipelines; pi++ {
			for pe := 0; pe < d.pipelines; pe++ {
				h := sh.hot[pi*d.pipelines+pe].Load()
				if h == 0 {
					continue
				}
				fast += h
				s.IngressPasses[pi] += h
				s.EgressPasses[pe] += h
			}
		}
		s.Recirculation.merge(sh.recirc.Snapshot())
		s.Latency.merge(sh.latency.Snapshot())
	}
	// Fold the fast-path packets into the latency histogram: each one
	// took exactly the configured fast-path latency.
	s.Latency.Counts[d.fastBucket] += fast
	s.Latency.Count += fast
	s.Latency.Sum += fast * d.fastL
	completed := s.Latency.Count
	if done := s.Dropped + s.ToCPU; completed >= done {
		s.Delivered = completed - done
	}
	if em := int64(s.Delivered) + extra; em > 0 {
		s.Emitted = uint64(em)
	}
	if completed > s.Recirculation.Count {
		s.Recirculation.Counts[0] += completed - s.Recirculation.Count
		s.Recirculation.Count = completed
	}
	return s
}

// Gather implements Collector: the dvtel datapath metric families (see
// docs/OBSERVABILITY.md for the catalogue).
func (d *Datapath) Gather() []Family {
	s := d.Snapshot()
	passes := Family{
		Name: "dejavu_pipelet_passes_total",
		Help: "Packet traversals per pipelet (pipeline x direction).",
		Kind: KindCounter,
	}
	recircs := Family{
		Name: "dejavu_recirculations_total",
		Help: "Loopback recirculations per pipeline.",
		Kind: KindCounter,
	}
	resubmits := Family{
		Name: "dejavu_resubmissions_total",
		Help: "Ingress resubmissions per pipeline.",
		Kind: KindCounter,
	}
	for p := 0; p < s.Pipelines; p++ {
		pl := strconv.Itoa(p)
		passes.Samples = append(passes.Samples,
			Sample{Labels: `pipeline="` + pl + `",dir="ingress"`, Value: float64(s.IngressPasses[p])},
			Sample{Labels: `pipeline="` + pl + `",dir="egress"`, Value: float64(s.EgressPasses[p])},
		)
		recircs.Samples = append(recircs.Samples, Sample{Labels: `pipeline="` + pl + `"`, Value: float64(s.Recircs[p])})
		resubmits.Samples = append(resubmits.Samples, Sample{Labels: `pipeline="` + pl + `"`, Value: float64(s.Resubmits[p])})
	}

	packets := Family{
		Name: "dejavu_packets_total",
		Help: "Completed packets by final disposition.",
		Kind: KindCounter,
		Samples: []Sample{
			{Labels: `outcome="delivered"`, Value: float64(s.Delivered)},
			{Labels: `outcome="dropped"`, Value: float64(s.Dropped)},
			{Labels: `outcome="to_cpu"`, Value: float64(s.ToCPU)},
			{Labels: `outcome="refused"`, Value: float64(s.Refused)},
		},
	}
	drops := Family{
		Name: "dejavu_drops_total",
		Help: "Dropped packets by reason.",
		Kind: KindCounter,
	}
	for r := DropReason(1); r < numDropReasons; r++ {
		drops.Samples = append(drops.Samples, Sample{Labels: `reason="` + r.String() + `"`, Value: float64(s.Drops[r])})
	}
	emitted := Family{
		Name:    "dejavu_emitted_packets_total",
		Help:    "Wire copies emitted through front-panel ports (incl. mirrors).",
		Kind:    KindCounter,
		Samples: []Sample{{Value: float64(s.Emitted)}},
	}
	lat := s.Latency
	rec := s.Recirculation
	latency := Family{
		Name:    "dejavu_packet_latency_ns",
		Help:    "Modelled per-packet pipeline latency in nanoseconds.",
		Kind:    KindHistogram,
		Samples: []Sample{{Hist: &lat}},
	}
	recHist := Family{
		Name:    "dejavu_packet_recirculations",
		Help:    "Recirculations per completed packet.",
		Kind:    KindHistogram,
		Samples: []Sample{{Hist: &rec}},
	}
	return []Family{passes, recircs, resubmits, packets, drops, emitted, latency, recHist}
}
