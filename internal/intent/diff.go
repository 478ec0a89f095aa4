package intent

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"dejavu/internal/config"
	"dejavu/internal/route"
)

// Kind classifies one semantic difference between two intents.
type Kind string

const (
	// KindAdd is a chain present only in the new intent.
	KindAdd Kind = "add"
	// KindRemove is a chain present only in the old intent.
	KindRemove Kind = "remove"
	// KindUpdate is a chain present in both with different fields.
	KindUpdate Kind = "update"
	// KindNoOp is a chain identical in both intents. NoOp actions are
	// recorded (not elided) so a report always accounts for every chain
	// the intent declares.
	KindNoOp Kind = "noop"
)

// Action is one typed per-chain action the converger will take.
type Action struct {
	Kind   Kind   `json:"kind"`
	PathID uint16 `json:"path_id"`
	// Fields names the changed chain fields for updates ("nfs",
	// "weight", "exit_pipeline", "static_exit_port", "placement").
	Fields []string `json:"fields,omitempty"`
	// Detail is a human-oriented summary of the action.
	Detail string `json:"detail,omitempty"`
}

// Delta is the semantic difference between two intents: the per-chain
// action list plus the global (whole-deployment) settings that changed.
type Delta struct {
	Actions []Action `json:"actions"`
	// Global names deployment-wide settings that differ: "profile",
	// "optimizer", "enter", "loopback_ports", "strict_lint",
	// "telemetry", "postcards", "anneal_seed", "nf_sections", "fabric".
	Global []string `json:"global,omitempty"`
}

// Empty reports whether converging this delta changes nothing: every
// chain action is a no-op and no global setting moved.
func (d *Delta) Empty() bool {
	if len(d.Global) > 0 {
		return false
	}
	for _, a := range d.Actions {
		if a.Kind != KindNoOp {
			return false
		}
	}
	return true
}

// Count returns the number of actions of the given kind.
func (d *Delta) Count(k Kind) int {
	n := 0
	for _, a := range d.Actions {
		if a.Kind == k {
			n++
		}
	}
	return n
}

// Summary renders the delta in one line, e.g.
// "2 add, 1 remove, 1 update, 3 noop; global: telemetry".
func (d *Delta) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d add, %d remove, %d update, %d noop",
		d.Count(KindAdd), d.Count(KindRemove), d.Count(KindUpdate), d.Count(KindNoOp))
	if len(d.Global) > 0 {
		fmt.Fprintf(&b, "; global: %s", strings.Join(d.Global, ", "))
	}
	return b.String()
}

// RouteChains returns the document's chain set in routing-layer form,
// ordered as declared. (The embedded config.File already promotes the
// declared specs as d.Chains.)
func (d *Document) RouteChains() []route.Chain {
	out := make([]route.Chain, 0, len(d.Chains))
	for _, c := range d.Chains {
		out = append(out, c.Route())
	}
	return out
}

// hintsFor collects the placement hints affecting one chain's NFs, in
// a canonical rendering, so a hint change surfaces as an update on the
// chains it touches.
func hintsFor(c config.ChainSpec, placement map[string]string) string {
	var hs []string
	for _, n := range c.NFs {
		if h, ok := placement[n]; ok {
			hs = append(hs, n+"="+h)
		}
	}
	sort.Strings(hs)
	return strings.Join(hs, ",")
}

// diffChain compares one chain's declaration across two intents and
// returns the changed field names (empty = identical).
func diffChain(oldC, newC config.ChainSpec, oldHints, newHints map[string]string) []string {
	var fields []string
	if !reflect.DeepEqual(oldC.NFs, newC.NFs) {
		fields = append(fields, "nfs")
	}
	if oldC.Weight != newC.Weight {
		fields = append(fields, "weight")
	}
	if oldC.ExitPipeline != newC.ExitPipeline {
		fields = append(fields, "exit_pipeline")
	}
	if oldC.StaticExitPort != newC.StaticExitPort {
		fields = append(fields, "static_exit_port")
	}
	if hintsFor(oldC, oldHints) != hintsFor(newC, newHints) {
		fields = append(fields, "placement")
	}
	return fields
}

// globalDiff names the deployment-wide settings differing between two
// intents.
func globalDiff(oldD, newD *Document) []string {
	var g []string
	if oldD.Profile != newD.Profile {
		g = append(g, "profile")
	}
	if oldD.Optimizer != newD.Optimizer {
		g = append(g, "optimizer")
	}
	if oldD.Enter != newD.Enter {
		g = append(g, "enter")
	}
	if !reflect.DeepEqual(oldD.LoopbackPorts, newD.LoopbackPorts) {
		g = append(g, "loopback_ports")
	}
	if oldD.StrictLint != newD.StrictLint {
		g = append(g, "strict_lint")
	}
	if oldD.Telemetry != newD.Telemetry {
		g = append(g, "telemetry")
	}
	if oldD.Postcards != newD.Postcards {
		g = append(g, "postcards")
	}
	if oldD.AnnealSeed != newD.AnnealSeed {
		g = append(g, "anneal_seed")
	}
	if !reflect.DeepEqual(oldD.Classifier, newD.Classifier) ||
		!reflect.DeepEqual(oldD.Firewall, newD.Firewall) ||
		!reflect.DeepEqual(oldD.VGW, newD.VGW) ||
		!reflect.DeepEqual(oldD.LB, newD.LB) ||
		!reflect.DeepEqual(oldD.Router, newD.Router) ||
		!reflect.DeepEqual(oldD.NAT, newD.NAT) {
		g = append(g, "nf_sections")
	}
	if !reflect.DeepEqual(oldD.Fabric, newD.Fabric) {
		g = append(g, "fabric")
	}
	return g
}

// Diff computes the semantic difference between two intents. A nil old
// intent means "nothing applied yet": every declared chain becomes an
// add. Actions come out ordered by path ID; the result is what Apply
// converges and what `dejavu diff` prints.
func Diff(oldD, newD *Document) *Delta {
	delta := &Delta{}
	if oldD == nil {
		for _, c := range newD.Chains {
			delta.Actions = append(delta.Actions, Action{
				Kind: KindAdd, PathID: c.PathID,
				Detail: fmt.Sprintf("add chain %d: %s", c.PathID, strings.Join(c.NFs, "->")),
			})
		}
		sortActions(delta.Actions)
		return delta
	}

	oldBy := make(map[uint16]config.ChainSpec, len(oldD.Chains))
	for _, c := range oldD.Chains {
		oldBy[c.PathID] = c
	}
	newBy := make(map[uint16]config.ChainSpec, len(newD.Chains))
	for _, c := range newD.Chains {
		newBy[c.PathID] = c
	}

	for _, c := range newD.Chains {
		oldC, ok := oldBy[c.PathID]
		if !ok {
			delta.Actions = append(delta.Actions, Action{
				Kind: KindAdd, PathID: c.PathID,
				Detail: fmt.Sprintf("add chain %d: %s", c.PathID, strings.Join(c.NFs, "->")),
			})
			continue
		}
		fields := diffChain(oldC, c, oldD.Placement, newD.Placement)
		if len(fields) == 0 {
			delta.Actions = append(delta.Actions, Action{Kind: KindNoOp, PathID: c.PathID})
			continue
		}
		delta.Actions = append(delta.Actions, Action{
			Kind: KindUpdate, PathID: c.PathID, Fields: fields,
			Detail: fmt.Sprintf("update chain %d: %s", c.PathID, strings.Join(fields, ", ")),
		})
	}
	for _, c := range oldD.Chains {
		if _, ok := newBy[c.PathID]; !ok {
			delta.Actions = append(delta.Actions, Action{
				Kind: KindRemove, PathID: c.PathID,
				Detail: fmt.Sprintf("remove chain %d", c.PathID),
			})
		}
	}
	sortActions(delta.Actions)
	delta.Global = globalDiff(oldD, newD)
	return delta
}

// sortActions orders actions by path ID (stable, deterministic output
// for reports and tests).
func sortActions(a []Action) {
	sort.Slice(a, func(i, j int) bool { return a[i].PathID < a[j].PathID })
}
