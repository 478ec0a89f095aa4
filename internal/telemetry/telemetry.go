// Package telemetry (dvtel) is Dejavu's observability layer: zero-
// allocation datapath counters and histograms, in-band "postcard"
// telemetry carried in the SFC header's context area, and the export
// surface that turns both into operator-facing artifacts (Prometheus
// text exposition, `dejavu top` snapshots).
//
// The package is a leaf: it imports nothing from the repo except
// internal/nsh (for the postcard wire format), so every layer — the
// behavioural ASIC hot path, the composer's per-NF/per-chain counters,
// the control plane's builds, applies and fabric rounds (Control in
// control.go), the benchmark harness — can feed it without cycles.
//
// Three building blocks:
//
//   - Counters and Histograms: preallocated atomics, safe for
//     concurrent writers, never allocating on the update path. The
//     Datapath aggregate (datapath.go) shards them so parallel
//     injectors do not serialize on shared cache lines.
//   - Postcards (postcard.go): per-hop records stamped into the SFC
//     context key-value slots (Fig. 3) and decoded at chain exit into
//     structured per-packet hop traces — INT in 3-byte increments.
//   - The Registry: collectors register here once; Gather produces a
//     stable metric-family snapshot and WritePrometheus renders the
//     text exposition `dejavu serve -metrics` serves.
//
// docs/OBSERVABILITY.md is the operator-facing catalogue of every
// metric this package exports.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
)

// Kind is the exposition type of a metric family.
type Kind uint8

// Metric family kinds, mirroring the Prometheus exposition types.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Sample is one labelled observation inside a family. For counter and
// gauge families Value carries the reading; for histogram families
// Hist carries the full bucket snapshot and Value is ignored.
type Sample struct {
	// Labels is the pre-rendered label set, e.g. `pipeline="0",dir="ingress"`,
	// or empty for an unlabelled sample. Pre-rendering keeps the metric
	// model allocation-light and the exposition deterministic.
	Labels string
	Value  float64
	Hist   *HistogramSnapshot
}

// Family is one named metric with its samples.
type Family struct {
	Name    string
	Help    string
	Kind    Kind
	Samples []Sample
}

// Collector is anything that can contribute metric families to a
// gather pass. Gather runs on the cold path (scrapes, snapshots) and
// may allocate; the hot update paths must not.
type Collector interface {
	Gather() []Family
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func() []Family

// Gather implements Collector.
func (f CollectorFunc) Gather() []Family { return f() }

// Registry fans a gather pass out to every registered collector.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a collector. Registration order is irrelevant: Gather
// sorts families by name for a deterministic exposition.
func (r *Registry) Register(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// Gather collects every family from every collector, merges families
// that share a name, and returns them sorted by name.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	cs := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()

	byName := make(map[string]*Family)
	var order []string
	for _, c := range cs {
		for _, fam := range c.Gather() {
			if have, ok := byName[fam.Name]; ok {
				have.Samples = append(have.Samples, fam.Samples...)
				continue
			}
			f := fam
			byName[fam.Name] = &f
			order = append(order, fam.Name)
		}
	}
	sort.Strings(order)
	out := make([]Family, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// Label renders one key="value" pair for a Sample's Labels field.
func Label(key string, value any) string {
	return fmt.Sprintf("%s=%q", key, fmt.Sprint(value))
}

// Labels joins pre-rendered pairs with commas.
func Labels(pairs ...string) string {
	out := ""
	for i, p := range pairs {
		if i > 0 {
			out += ","
		}
		out += p
	}
	return out
}
