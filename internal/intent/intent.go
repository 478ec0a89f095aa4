// Package intent implements Dejavu's declarative configuration plane:
// a versioned intent document describing the complete desired state of
// a deployment — service chains with NF sequences, traffic weights,
// placement hints, telemetry/postcard knobs and the strict-lint gate —
// plus a semantic differ (Diff) producing typed Add/Remove/Update/NoOp
// actions and a converger (Applier) that drives the diff through the
// incremental build pipeline and the control plane's program
// transactions. Re-applying an unchanged intent is a provable no-op
// (every pipeline stage hits the artifact cache, zero pipelet programs
// reload); a mid-apply failure rolls the deployment back to the last
// applied intent. With a `fabric` section the same document fans out
// across a multi-switch cluster.FabricDeployment. See docs/INTENT.md
// for the operator guide.
package intent

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"strconv"
	"strings"

	"dejavu/internal/asic"
	"dejavu/internal/cluster"
	"dejavu/internal/config"
	"dejavu/internal/core"
	"dejavu/internal/route"
)

// Version is the intent schema version this package understands.
// Documents must declare it explicitly: an operator applying a file
// written for a future schema gets a typed rejection, not a silent
// misread.
const Version = 1

// Document is the versioned declarative intent: the complete desired
// state of one deployment. The embedded config.File contributes the
// switch profile, the chain set, every NF's configuration section and
// the strict-lint/telemetry/postcard knobs; the intent layer adds the
// schema version, optional placement hints and the optional fabric
// (fleet) section.
type Document struct {
	// SchemaVersion must equal Version (the `version` key).
	SchemaVersion int `json:"version"`
	// Name optionally labels the intent in reports.
	Name string `json:"name,omitempty"`

	config.File

	// Placement pins NFs to pipelets during placement optimization,
	// e.g. {"fw": "ingress 1"}. Hints are honored by apply: changing a
	// hint re-resolves the placement and hot-swaps the deployment.
	// Single-switch only — fabric segmentation places NFs itself.
	Placement map[string]string `json:"placement,omitempty"`
	// AnnealSeed seeds the annealing optimizer (placement
	// reproducibility across apply runs).
	AnnealSeed int64 `json:"anneal_seed,omitempty"`
	// Fabric, when present, fans the intent across a multi-switch
	// fabric instead of a single ASIC.
	Fabric *FabricSpec `json:"fabric,omitempty"`
}

// FabricSpec is the fleet section of an intent: the same chain set
// converged over a multi-switch fabric (linear spine on port 10 with
// skip wires on port 11, the wiring `dejavu chaos -switches` uses).
type FabricSpec struct {
	// Switches is the fabric size (>= 2).
	Switches int `json:"switches"`
	// StageDemand overrides per-NF MAU stage demand for the fabric
	// placers; an absent NF is planned at its block's compiler.MinStages.
	// A listed demand is at least one, and one below the NF's real
	// demand plans a switch program that the build refuses (DV001).
	StageDemand map[string]int `json:"stage_demand,omitempty"`
	// Pin homes NFs on specific switches, e.g. {"fw": 1}. The
	// fabric-mode analogue of single-switch placement hints: the
	// cost-based placer routes each chain through its pinned homes
	// (and refuses placements that would move them).
	Pin map[string]int `json:"pin,omitempty"`
}

// Parse decodes a strict JSON intent document: unknown fields anywhere
// in the document are rejected, then the document is validated.
func Parse(r io.Reader) (*Document, error) {
	var doc Document
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("intent: %w", err)
	}
	if err := doc.Validate(); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Load reads, parses and validates an intent file.
func Load(path string) (*Document, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	doc, err := Parse(fh)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// parsePipelet parses a placement hint like "ingress 0" or "egress 1".
func parsePipelet(s string) (asic.PipeletID, error) {
	parts := strings.Fields(s)
	if len(parts) != 2 {
		return asic.PipeletID{}, fmt.Errorf("intent: bad placement hint %q (want \"ingress N\" or \"egress N\")", s)
	}
	var dir asic.Direction
	switch parts[0] {
	case "ingress":
		dir = asic.Ingress
	case "egress":
		dir = asic.Egress
	default:
		return asic.PipeletID{}, fmt.Errorf("intent: bad placement direction %q in hint %q", parts[0], s)
	}
	pipe, err := strconv.Atoi(parts[1])
	if err != nil || pipe < 0 {
		return asic.PipeletID{}, fmt.Errorf("intent: bad pipeline index in placement hint %q", s)
	}
	return asic.PipeletID{Pipeline: pipe, Dir: dir}, nil
}

// Validate checks the document's schema and semantic invariants:
// supported version, at least one chain, unique path IDs, valid chain
// shapes, parseable placement hints naming NFs the chains actually
// use, and a sane fabric section; a classifier hint or pin must name
// the entry (route.ErrClassifierOffEntry). The NF sections themselves
// are validated by Build (they materialize real NF implementations).
func (d *Document) Validate() error {
	if d.SchemaVersion != Version {
		return fmt.Errorf("intent: unknown schema version %d (this build supports version %d)", d.SchemaVersion, Version)
	}
	if len(d.Chains) == 0 {
		return fmt.Errorf("intent: no chains declared — an intent describes the complete desired state")
	}
	seen := make(map[uint16]bool, len(d.Chains))
	used := make(map[string]bool)
	for _, c := range d.Chains {
		if seen[c.PathID] {
			return fmt.Errorf("intent: chain path_id %d declared twice", c.PathID)
		}
		seen[c.PathID] = true
		for _, n := range c.NFs {
			used[n] = true
		}
	}
	if d.Fabric != nil {
		if d.Fabric.Switches < 2 {
			return fmt.Errorf("intent: fabric.switches must be >= 2, got %d", d.Fabric.Switches)
		}
		if len(d.Placement) > 0 {
			return fmt.Errorf("intent: placement hints are single-switch; use fabric.pin to home NFs on switches")
		}
		for _, n := range cluster.SortedKeys(d.Fabric.StageDemand) {
			if v := d.Fabric.StageDemand[n]; v <= 0 {
				return fmt.Errorf("intent: fabric stage_demand for NF %q is %d; a demand must be >= 1 stage", n, v)
			}
		}
		for _, n := range cluster.SortedKeys(d.Fabric.Pin) {
			if !used[n] {
				return fmt.Errorf("intent: fabric pin for NF %q, which no chain uses", n)
			}
			if s := d.Fabric.Pin[n]; s < 0 || s >= d.Fabric.Switches {
				return fmt.Errorf("intent: fabric pin for NF %q names switch %d, outside the %d-switch fabric", n, s, d.Fabric.Switches)
			} else if n == route.Classifier && s != 0 {
				return fmt.Errorf("intent: fabric pin for NF %q names switch %d, not the entry switch 0: %w", n, s, route.ErrClassifierOffEntry)
			}
		}
	}
	for _, n := range cluster.SortedKeys(d.Placement) {
		pl, err := parsePipelet(d.Placement[n])
		if err != nil {
			return err
		}
		if !used[n] {
			return fmt.Errorf("intent: placement hint for NF %q, which no chain uses", n)
		}
		if n == route.Classifier && pl != (asic.PipeletID{Pipeline: d.Enter, Dir: asic.Ingress}) {
			return fmt.Errorf("intent: placement hint %q for NF %q, not ingress %d where traffic enters: %w",
				d.Placement[n], n, d.Enter, route.ErrClassifierOffEntry)
		}
	}
	// The chain shapes themselves (reserved path 0, duplicate NFs,
	// weight sign) are enforced by config.File.Build via Chain.Validate;
	// running it here keeps diff-only workflows honest too.
	for _, c := range d.Chains {
		if err := c.Route().Validate(); err != nil {
			return fmt.Errorf("intent: %w", err)
		}
	}
	return nil
}

// BuildConfig materializes the intent into a deployable core.Config:
// the embedded config.File builds the NF implementations, then the
// placement hints become optimizer pins and the anneal seed is
// stamped.
func (d *Document) BuildConfig() (*core.Config, error) {
	cfg, err := d.File.Build()
	if err != nil {
		return nil, fmt.Errorf("intent: %w", err)
	}
	if cfg.Pin, err = d.pins(cfg.Prof); err != nil {
		return nil, err
	}
	cfg.AnnealSeed = d.AnnealSeed
	return cfg, nil
}

// pins resolves the placement hints into optimizer pins on prof.
func (d *Document) pins(prof asic.Profile) (map[string]asic.PipeletID, error) {
	if len(d.Placement) == 0 {
		return nil, nil
	}
	pin := make(map[string]asic.PipeletID, len(d.Placement))
	for _, n := range cluster.SortedKeys(d.Placement) {
		hint := d.Placement[n]
		pl, err := parsePipelet(hint)
		if err != nil {
			return nil, err
		}
		if pl.Pipeline >= prof.Pipelines {
			return nil, fmt.Errorf("intent: placement hint %q for %q exceeds the profile's %d pipelines",
				hint, n, prof.Pipelines)
		}
		pin[n] = pl
	}
	return pin, nil
}

// update is the intent as an update of a live deployment on prof — the
// chain set and the settings a hot swap can change, checked as
// BuildConfig checks them. No NF is built: a changed NF section forces
// a redeploy (redeployGlobals), so the live ones are the declared ones.
func (d *Document) update(prof asic.Profile) (core.Update, error) {
	opt, err := d.ResolveOptimizer()
	if err != nil {
		return core.Update{}, fmt.Errorf("intent: %w", err)
	}
	pin, err := d.pins(prof)
	if err != nil {
		return core.Update{}, err
	}
	return core.Update{
		Chains: d.RouteChains(), Pin: pin, Optimizer: opt,
		AnnealSeed: d.AnnealSeed, StrictLint: d.StrictLint, Telemetry: d.Telemetry,
	}, nil
}

// Hash is the content hash of the canonical document rendering. Two
// intents with the same hash are byte-identical desired state — the
// no-op proof `dejavu apply` reports rests on it (plus the build
// pipeline's per-stage hashes underneath).
func (d *Document) Hash() string {
	// encoding/json renders struct fields in declaration order and
	// sorts map keys, so Marshal is canonical for our shape.
	b, err := json.Marshal(d)
	if err != nil {
		// A Document is plain data; Marshal cannot fail on one. Keep the
		// signature ergonomic and make the impossible loud.
		panic("intent: marshal: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}

// Clone deep-copies the document, so callers can mutate a desired
// state without aliasing the applied one. The copy is the original
// value for value — nil stays nil, empty stays empty, which Diff tells
// apart — and shares no slice, map or section with it.
func (d *Document) Clone() *Document {
	out := *d
	out.File = d.File.Clone()
	out.Placement = maps.Clone(d.Placement)
	if d.Fabric != nil {
		f := *d.Fabric
		f.StageDemand = maps.Clone(f.StageDemand)
		f.Pin = maps.Clone(f.Pin)
		out.Fabric = &f
	}
	return &out
}
