package lint

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dejavu/internal/asic"
	"dejavu/internal/nf"
	"dejavu/internal/route"
)

// recircLegalRule (DV005) enforces the hardware's recirculation
// constraints (§3.3) statically: resubmission exists only at the end
// of ingress processing, recirculation only after egress, and both
// stay within one pipeline. Violations appear in two forms — an NF
// table in an egress pipelet whose action writes the resubmit flag,
// and a branching decision whose loopback port belongs to a pipeline
// other than the one hosting the next NF.
type recircLegalRule struct{}

func (recircLegalRule) ID() string    { return RuleRecircLegal }
func (recircLegalRule) Title() string { return "recirculation and resubmission legality" }

func (recircLegalRule) Check(t *Target, r *Report) {
	// IR-level: flag writes in the wrong pipelet direction.
	for _, pl := range t.Pipelets() {
		block := t.Blocks[pl]
		if block == nil {
			continue
		}
		for _, tbl := range block.Tables {
			for _, ref := range tbl.WriteSet() {
				switch {
				case ref == "meta.resubmit" && pl.Dir == asic.Egress:
					r.Add(Finding{
						Rule:     RuleRecircLegal,
						Severity: SevError,
						Where:    pl.String(),
						Message: fmt.Sprintf("table %s writes meta.resubmit in an egress pipelet; resubmission exists only after ingress processing",
							tbl.Name),
						Fix: "request a recirculation (loopback port) instead, or move the NF to an ingress pipelet",
					})
				case ref == "meta.recirculate" && pl.Dir == asic.Ingress:
					r.Add(Finding{
						Rule:     RuleRecircLegal,
						Severity: SevWarn,
						Where:    pl.String(),
						Message: fmt.Sprintf("table %s writes meta.recirculate in an ingress pipelet; recirculation happens only after egress — choose a loopback egress port instead",
							tbl.Name),
						Fix: "let the ingress branching table pick a loopback port",
					})
				}
			}
		}
	}

	// Branching-level: every loopback hop must stay within the pipeline
	// of the NF it is supposed to reach (constraint (d) of the ASIC
	// model), and every resubmit must actually have its next NF on the
	// resubmitting ingress.
	if t.Branching == nil || t.Placement == nil {
		return
	}
	for _, ch := range t.Chains {
		for idx := ch.InitialIndex(); idx >= 1; idx-- {
			name, ok := ch.NFAt(idx)
			if !ok {
				continue
			}
			at, placed := t.Placement.Of(name)
			if !placed {
				continue // placementRule reports it
			}
			for pipe := 0; pipe < t.Prof.Pipelines; pipe++ {
				hop := t.Branching.Decide(ch.PathID, idx, pipe, asic.PortUnset)
				switch hop.Kind {
				case route.HopResubmit:
					if at != (asic.PipeletID{Pipeline: pipe, Dir: asic.Ingress}) {
						r.Add(Finding{
							Rule:     RuleRecircLegal,
							Severity: SevError,
							Where:    fmt.Sprintf("chain %d", ch.PathID),
							Message: fmt.Sprintf("branching resubmits (path %d, index %d) on pipeline %d but next NF %q sits on %s; the packet would spin without progress",
								ch.PathID, idx, pipe, name, at),
							Fix: "regenerate the branching table from the current placement",
						})
					}
				case route.HopForward:
					if asic.IsRecircPort(hop.Port) && t.Prof.PipelineOf(hop.Port) != at.Pipeline {
						r.Add(Finding{
							Rule:     RuleRecircLegal,
							Severity: SevError,
							Where:    fmt.Sprintf("chain %d", ch.PathID),
							Message: fmt.Sprintf("loopback for (path %d, index %d) uses recirculation port of pipeline %d but next NF %q sits on pipeline %d; recirculation cannot cross pipelines",
								ch.PathID, idx, t.Prof.PipelineOf(hop.Port), name, at.Pipeline),
							Fix: "use the loopback port pool of the pipeline hosting the NF",
						})
					}
				}
			}
		}
	}
}

// branchingRule (DV006) checks branching-table completeness and chain
// termination: every (service path ID, service index) the classifier
// can stamp must resolve to an installed chain step — an unresolvable
// pair silently black-holes traffic to the CPU — and every chain's
// static traversal must terminate (a recirculation cycle that never
// decrements the service index would loop forever).
type branchingRule struct{}

func (branchingRule) ID() string    { return RuleBranching }
func (branchingRule) Title() string { return "branching completeness and chain termination" }

func (branchingRule) Check(t *Target, r *Report) {
	chains := make(map[uint16]route.Chain, len(t.Chains))
	for _, ch := range t.Chains {
		chains[ch.PathID] = ch
	}

	// Every path the classifier can stamp must resolve.
	stamped := make(map[uint16]bool)
	for _, f := range t.NFs {
		ps, ok := f.(nf.PathStamper)
		if !ok {
			continue
		}
		// In path order: findings of one NF tie in the report's sort,
		// so the emission order is the printed order.
		paths := ps.StampedPaths()
		order := make([]uint16, 0, len(paths))
		for path := range paths {
			order = append(order, path)
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		for _, path := range order {
			idx := paths[path]
			stamped[path] = true
			ch, exists := chains[path]
			if !exists {
				r.Add(Finding{
					Rule:     RuleBranching,
					Severity: SevError,
					Where:    f.Name(),
					Message: fmt.Sprintf("classifier can stamp path %d but no such chain is installed; matching traffic is black-holed to the CPU",
						path),
					Fix: "install the chain or remove the classification rule",
				})
				continue
			}
			switch {
			case idx == 0:
				r.Add(Finding{
					Rule:     RuleBranching,
					Severity: SevError,
					Where:    f.Name(),
					Message:  fmt.Sprintf("classifier stamps path %d with initial index 0; the chain would complete without running any NF", path),
					Fix:      fmt.Sprintf("stamp the chain length (%d) as the initial index", len(ch.NFs)),
				})
			case int(idx) > len(ch.NFs):
				r.Add(Finding{
					Rule:     RuleBranching,
					Severity: SevError,
					Where:    f.Name(),
					Message: fmt.Sprintf("classifier stamps (path %d, index %d) but the chain has only %d NFs; the branching table has no entry for the pair",
						path, idx, len(ch.NFs)),
					Fix: fmt.Sprintf("stamp initial index %d", len(ch.NFs)),
				})
			case int(idx) < len(ch.NFs):
				r.Add(Finding{
					Rule:     RuleBranching,
					Severity: SevWarn,
					Where:    f.Name(),
					Message: fmt.Sprintf("classifier stamps (path %d, index %d), skipping the chain's first %d NF(s)",
						path, idx, len(ch.NFs)-int(idx)),
					Fix: "stamp the full chain length unless the skip is intentional",
				})
			}
		}
	}
	if len(stamped) > 0 {
		for _, ch := range t.Chains {
			if !stamped[ch.PathID] {
				r.Add(Finding{
					Rule:     RuleBranching,
					Severity: SevWarn,
					Where:    fmt.Sprintf("chain %d", ch.PathID),
					Message:  "chain is installed but no classifier rule or default stamps its path; it can never carry traffic",
					Fix:      "add a classification rule for the path or remove the chain",
				})
			}
		}
	}

	// Termination: the static traversal of every chain whose NFs are all
	// placed or remote must complete (placementRule reports a hole).
	// route.Plan's guard detects placements whose branching decisions
	// cycle without consuming NFs.
	for _, ch := range t.Chains {
		if t.Placement == nil || slices.ContainsFunc(ch.NFs, func(name string) bool {
			_, ok := t.Placement.Of(name)
			return !ok && !t.Placement.IsRemote(name)
		}) {
			continue
		}
		if _, err := route.Plan(ch, t.Placement, t.Enter); err != nil {
			sev := SevError
			msg := fmt.Sprintf("traversal planning failed: %v", err)
			if strings.Contains(err.Error(), "did not terminate") {
				msg = fmt.Sprintf("chain traversal never terminates — a recirculation cycle that never exhausts the service index: %v", err)
			}
			r.Add(Finding{
				Rule:     RuleBranching,
				Severity: sev,
				Where:    fmt.Sprintf("chain %d", ch.PathID),
				Message:  msg,
				Fix:      "fix the placement so each step makes progress toward the chain's end",
			})
		}
	}
}

// placementRule (DV007) checks placement consistency: every chain NF
// is placed (or declared remote) on an existing pipelet and has an
// implementation, and placed NFs are actually referenced by a chain.
type placementRule struct{}

func (placementRule) ID() string    { return RulePlacement }
func (placementRule) Title() string { return "placement consistency" }

func (placementRule) Check(t *Target, r *Report) {
	if t.Placement == nil {
		return
	}
	used := make(map[string]bool)
	for _, ch := range t.Chains {
		for _, name := range ch.NFs {
			used[name] = true
			if t.Placement.IsRemote(name) {
				continue
			}
			pl, ok := t.Placement.Of(name)
			if !ok {
				r.Add(Finding{
					Rule:     RulePlacement,
					Severity: SevError,
					Where:    fmt.Sprintf("chain %d", ch.PathID),
					Message:  fmt.Sprintf("NF %q is referenced by the chain but absent from the placement", name),
					Fix:      "assign the NF to a pipelet or declare it remote",
				})
				continue
			}
			if pl.Pipeline < 0 || pl.Pipeline >= t.Prof.Pipelines {
				r.Add(Finding{
					Rule:     RulePlacement,
					Severity: SevError,
					Where:    name,
					Message: fmt.Sprintf("NF is placed on pipeline %d but the profile has only %d pipelines",
						pl.Pipeline, t.Prof.Pipelines),
					Fix: "place the NF on an existing pipeline",
				})
			}
			if t.NFs.ByName(name) == nil {
				r.Add(Finding{
					Rule:     RulePlacement,
					Severity: SevError,
					Where:    name,
					Message:  "NF is placed and chained but has no implementation; its pipelet would skip it and the branching table would spin",
					Fix:      "register the NF implementation with the composer",
				})
			}
		}
	}
	// Unused placements: deterministic order via sorted names.
	var placedNames []string
	for name := range t.Placement.NF {
		placedNames = append(placedNames, name)
	}
	slices.Sort(placedNames)
	for _, name := range placedNames {
		if !used[name] {
			r.Add(Finding{
				Rule:     RulePlacement,
				Severity: SevInfo,
				Where:    name,
				Message:  "NF is placed on a pipelet but no chain references it; it occupies MAU stages for nothing",
				Fix:      "remove the placement or add the NF to a chain",
			})
		}
	}
}

// chainShapeRule (DV008) checks structural chain sanity beyond what
// route.Chain.Validate enforces: classifier-first ordering, static
// exit ports that exist and sit on the declared exit pipeline, and the
// presence of a classifier at all (untagged traffic without one is
// punted to the control plane).
type chainShapeRule struct{}

func (chainShapeRule) ID() string    { return RuleChainShape }
func (chainShapeRule) Title() string { return "chain structure sanity" }

func (chainShapeRule) Check(t *Target, r *Report) {
	haveClassifier := false
	for _, ch := range t.Chains {
		where := fmt.Sprintf("chain %d", ch.PathID)
		if err := ch.Validate(); err != nil {
			r.Add(Finding{
				Rule:     RuleChainShape,
				Severity: SevError,
				Where:    where,
				Message:  err.Error(),
				Fix:      "fix the chain declaration",
			})
			continue
		}
		for i, name := range ch.NFs {
			if name != route.Classifier {
				continue
			}
			haveClassifier = true
			if i != 0 {
				r.Add(Finding{
					Rule:     RuleChainShape,
					Severity: SevWarn,
					Where:    where,
					Message:  fmt.Sprintf("classifier appears at position %d; it must face untagged traffic first to stamp the SFC header", i),
					Fix:      "move the classifier to the head of the chain",
				})
			}
		}
		if ch.ExitPipeline < 0 || ch.ExitPipeline >= t.Prof.Pipelines {
			r.Add(Finding{
				Rule:     RuleChainShape,
				Severity: SevError,
				Where:    where,
				Message:  fmt.Sprintf("exit pipeline %d does not exist on the %d-pipeline profile", ch.ExitPipeline, t.Prof.Pipelines),
				Fix:      "declare an existing exit pipeline",
			})
		}
		if ch.HasStaticExit() {
			switch {
			case !t.Prof.ValidPort(ch.StaticExitPort) || asic.IsRecircPort(ch.StaticExitPort):
				r.Add(Finding{
					Rule:     RuleChainShape,
					Severity: SevError,
					Where:    where,
					Message:  fmt.Sprintf("static exit port %d is not a front-panel port of the profile", ch.StaticExitPort),
					Fix:      "pick an existing front-panel port",
				})
			case t.Prof.PipelineOf(ch.StaticExitPort) != ch.ExitPipeline:
				r.Add(Finding{
					Rule:     RuleChainShape,
					Severity: SevError,
					Where:    where,
					Message: fmt.Sprintf("static exit port %d is hardwired to pipeline %d but the chain declares exit pipeline %d; the direct-exit optimization would misroute",
						ch.StaticExitPort, t.Prof.PipelineOf(ch.StaticExitPort), ch.ExitPipeline),
					Fix: "align the exit port with the exit pipeline",
				})
			}
		}
		if ch.Weight == 0 {
			r.Add(Finding{
				Rule:     RuleChainShape,
				Severity: SevInfo,
				Where:    where,
				Message:  "chain weight 0 is treated as 1 by the placer; declare an explicit share",
				Fix:      "set a nonzero weight",
			})
		}
	}
	if !haveClassifier && len(t.Chains) > 0 {
		r.Add(Finding{
			Rule:     RuleChainShape,
			Severity: SevWarn,
			Where:    "chains",
			Message:  "no chain contains the classifier; untagged traffic will be punted to the control plane",
			Fix:      "start each externally-facing chain with the classifier",
		})
	}
}
