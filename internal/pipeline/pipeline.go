// Package pipeline turns Dejavu's monolithic build path into an
// explicit staged pipeline — parser-merge → placement → composition →
// stage allocation → routing → lint — where every stage produces an
// immutable artifact keyed by a content hash over exactly the inputs
// that determine it. Rebuilding against a Cache therefore recomputes
// only the stages whose inputs changed: adding a chain over the same
// NF set re-merges no parser, re-optimizes no placement and recompiles
// no pipelet program — it re-sizes the framework tables and re-derives
// the branching program, whose entry-level diff (route.Diff) is the
// minimal write-set a live reconfiguration pushes to the switch (§7:
// reloading data plane programs is expensive, updating table entries
// is not).
//
// The cacheable unit of composition is the pipelet: a control block's
// hash covers the pipelet's ordered NF set, composition mode and the
// chain-entry count (framework table sizing); a behavioural program's
// hash covers the same minus the entry count, because the closures
// read all routing state through the snapshot-published
// compose.Runtime rather than capturing it. Build reports per-stage
// hit/miss status (BuildInfo) so callers — `dejavu plan`, the rebuild
// telemetry counters — can show exactly what a change would recompute.
package pipeline

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"dejavu/internal/asic"
	"dejavu/internal/compiler"
	"dejavu/internal/compose"
	"dejavu/internal/lint"
	"dejavu/internal/nf"
	"dejavu/internal/p4"
	"dejavu/internal/route"
)

// Inputs is the complete declaration of one build: everything any
// stage reads. Build is a pure function of Inputs (plus whatever the
// Cache remembers about previous builds of the same deployment).
type Inputs struct {
	Prof   asic.Profile
	Chains []route.Chain
	NFs    nf.List
	// Enter is the pipeline receiving external traffic.
	Enter int
	// Placement, when non-nil, is used verbatim; otherwise Optimizer
	// computes one.
	Placement *route.Placement
	// Optimizer names the placement strategy ("exhaustive", "anneal",
	// "greedy", "naive"; empty means exhaustive with anneal fallback).
	Optimizer string
	// Pin fixes NFs to pipelets during optimization.
	Pin        map[string]asic.PipeletID
	AnnealSeed int64
	// Strict refuses builds whose lint report has error findings.
	Strict bool
}

// Stage names, in pipeline order.
const (
	StageParserMerge = "parser-merge"
	StagePlacement   = "placement"
	StageComposition = "composition"
	StageAllocation  = "stage-allocation"
	StageRouting     = "routing"
	StageLint        = "lint"
)

// StageStatus reports one stage of one build.
type StageStatus struct {
	Name string `json:"name"`
	// CacheHit is true when the stage served its artifact from cache
	// without recomputation.
	CacheHit bool `json:"cache_hit"`
	// Hash is the content hash of the stage's inputs.
	Hash string `json:"hash"`
	// Detail is a human-oriented note ("2/8 blocks rebuilt").
	Detail   string        `json:"detail,omitempty"`
	Duration time.Duration `json:"duration_ns"`
}

// BuildInfo summarizes a build's incremental behaviour.
type BuildInfo struct {
	Stages      []StageStatus `json:"stages"`
	CacheHits   int           `json:"cache_hits"`
	CacheMisses int           `json:"cache_misses"`
	Duration    time.Duration `json:"duration_ns"`
}

// Stage returns the named stage's status, or nil.
func (i *BuildInfo) Stage(name string) *StageStatus {
	for j := range i.Stages {
		if i.Stages[j].Name == name {
			return &i.Stages[j]
		}
	}
	return nil
}

// Summary renders a one-line-per-stage report.
func (i *BuildInfo) Summary() string {
	var sb strings.Builder
	for _, s := range i.Stages {
		state := "rebuilt"
		if s.CacheHit {
			state = "cached"
		}
		fmt.Fprintf(&sb, "  %-16s %-7s %s", s.Name, state, s.Hash)
		if s.Detail != "" {
			fmt.Fprintf(&sb, "  (%s)", s.Detail)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "  %d cached, %d rebuilt\n", i.CacheHits, i.CacheMisses)
	return sb.String()
}

// Result is a completed build: the assembled deployment plus every
// per-stage artifact a caller needs to install, diff or report it.
type Result struct {
	// Dep is the assembled deployment, ready for InstallOn.
	Dep      *compose.Deployment
	Composer *compose.Composer
	// Placement and Cost are the resolved placement and its weighted
	// recirculation cost against the current chain set.
	Placement *route.Placement
	Cost      route.Cost
	// Plans holds the per-pipelet stage allocations.
	Plans map[asic.PipeletID]*compiler.Plan
	// Traversals are the per-chain routes, in chain order.
	Traversals []route.Traversal
	// Program is the declarative branching-table program; diffing two
	// builds' Programs yields a live reconfiguration's write-set.
	Program route.TableProgram
	// Lint is the static-verification report (cached block and parser
	// findings merged with freshly run global rules). It is the one
	// field a refused build fills for certain: it says why.
	Lint *lint.Report
	// ChangedFuncs lists the pipelets whose behavioural programs were
	// rebuilt — the pipelet_program writes of an incremental swap.
	ChangedFuncs []asic.PipeletID
	Info         BuildInfo
}

// parserArtifact is the parser-merge stage output: the generic parser
// (nil when the fragments conflict) and that merge's DV004 findings.
type parserArtifact struct {
	parser   *p4.ParserGraph
	idt      *p4.GlobalIDTable
	findings []lint.Finding
}

// placementArtifact is the optimized-placement stage output. (A
// provided placement caches nothing: its cost is chain-dependent and
// recomputed each build.)
type placementArtifact struct {
	placement *route.Placement
	cost      route.Cost
}

// routingArtifact is the routing stage output.
type routingArtifact struct {
	branching  *route.Branching
	program    route.TableProgram
	traversals []route.Traversal
}

// Build runs the staged pipeline. A nil cache builds everything from
// scratch; with a cache, stages whose input hashes match a previous
// build are served from it. On success the cache adopts this build's
// composer as the previous generation for the next call. Build never
// mutates the switch: installing (or diffing and hot-swapping) the
// result is the caller's move.
//
// Lint is the last stage. A stage that cannot produce an artifact —
// fragments that conflict in the parser merge, a pipelet that does not
// compose or does not fit its stage budget — leaves it empty and the
// build goes on to lint, which reports why (DV004, DV002, DV001). Such
// a build, like a strict one with error findings, is refused: Build
// returns the Result, its Lint filled, together with an error naming
// the findings, and keeps none of the artifacts it stored after the
// missing one. Other failures (no chains, a placement it cannot
// resolve) stop the build with no Result.
func Build(in Inputs, cache *Cache) (*Result, error) {
	t0 := time.Now()
	if in.Prof.Pipelines == 0 {
		in.Prof = asic.Wedge100B()
	}
	if len(in.Chains) == 0 {
		return nil, fmt.Errorf("pipeline: no chains configured")
	}

	res := &Result{}
	record := func(name, hash string, hit bool, detail string, start time.Time) {
		res.Info.Stages = append(res.Info.Stages, StageStatus{
			Name: name, CacheHit: hit, Hash: hash, Detail: detail,
			Duration: time.Since(start),
		})
		if hit {
			res.Info.CacheHits++
		} else {
			res.Info.CacheMisses++
		}
	}
	fps, fpAll := cache.fingerprints(in.NFs)
	// incomplete marks a build missing an artifact; from then on it
	// stores into a scratch copy of the cache.
	incomplete := false
	markIncomplete := func() {
		if !incomplete {
			incomplete, cache = true, cache.Clone()
		}
	}

	// Stage: parser-merge. The generic parser depends on the NFs the
	// chains use, in first-seen chain order (§3); its DV004 findings are
	// kept with it.
	start := time.Now()
	order := compose.ChainNFs(in.Chains)
	parserParts := []string{"parser"}
	for _, name := range order {
		parserParts = append(parserParts, name, fps[name])
	}
	parserHash := hashOf(parserParts...)
	var pa parserArtifact
	pv, parserHit := cache.lookup("parser", parserHash)
	if parserHit {
		pa = pv.(parserArtifact)
	} else {
		g, idt, err := compose.MergeParser(order, in.NFs)
		var conflicts *p4.MergeError
		if err != nil && !errors.As(err, &conflicts) {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		pa.findings = lint.ParserFindings(order, g, conflicts)
		if conflicts != nil {
			markIncomplete()
		} else {
			pa.parser, pa.idt = g, idt
			cache.store("parser", parserHash, pa)
		}
	}
	parserDetail := fmt.Sprintf("%d NFs, merge conflicts", len(order))
	if pa.parser != nil {
		parserDetail = fmt.Sprintf("%d NFs merged, %d parse states", len(order), pa.parser.ParseStates())
	}
	record(StageParserMerge, parserHash, parserHit, parserDetail, start)

	// Stage: placement. A provided placement is hashed by content (its
	// chain-dependent cost is cheap and recomputed every build); an
	// optimized one by the full optimization problem, cost included.
	start = time.Now()
	demand, err := stageDemands(in.NFs, cache, fps)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	var placement *route.Placement
	var cost route.Cost
	var placeHash string
	if in.Placement != nil {
		placeHash = hashOf("placement-pinned", profSig(in.Prof), canonPlacement(in.Placement))
		_, hit := cache.lookup("placement", placeHash)
		p, c, err := resolveWithDemands(in, demand)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		placement, cost = p, c
		cache.store("placement", placeHash, placementArtifact{placement: p, cost: c})
		record(StagePlacement, placeHash, hit, "pinned placement", start)
	} else {
		placeHash = hashOf("placement-opt", profSig(in.Prof), canonChains(in.Chains),
			itoa(in.Enter), in.Optimizer, strconv.FormatInt(in.AnnealSeed, 10),
			canonPin(in.Pin), fpAll)
		if v, ok := cache.lookup("placement-opt", placeHash); ok {
			art := v.(placementArtifact)
			placement, cost = art.placement, art.cost
			record(StagePlacement, placeHash, true, "optimizer "+optName(in.Optimizer), start)
		} else {
			p, c, err := resolveWithDemands(in, demand)
			if err != nil {
				return nil, fmt.Errorf("pipeline: %w", err)
			}
			placement, cost = p, c
			cache.store("placement-opt", placeHash, placementArtifact{placement: p, cost: c})
			// A later reconfiguration pins this exact placement; seed the
			// pinned entry so its placement stage is a hit, not a miss.
			cache.store("placement",
				hashOf("placement-pinned", profSig(in.Prof), canonPlacement(p)),
				placementArtifact{placement: p, cost: c})
			record(StagePlacement, placeHash, false, "optimizer "+optName(in.Optimizer), start)
		}
	}

	// This generation's composer: validates the placement against the
	// chains and assigns (stable) NF identities.
	comp, err := compose.New(in.Prof, in.Chains, placement, in.NFs)
	if err != nil {
		return nil, err
	}
	if prev := cache.previous(); prev != nil {
		if err := comp.AdoptState(prev); err != nil {
			// A different NF universe: cached behavioural programs
			// captured the old generation's counters and must not be
			// served. Blocks, routing and lint artifacts are pure data
			// and stay valid.
			cache.dropPrefix("func/")
			cache.setPrevious(nil)
		}
	}

	// Stage: composition. Per pipelet, two artifacts: the control block
	// (hash includes the chain-entry count — framework tables are sized
	// by it) and the behavioural program (hash excludes it — closures
	// read routing state through the published Runtime, so same-NF
	// chain churn keeps them verbatim).
	start = time.Now()
	pipelets := in.Prof.Pipelets()
	entries := chainEntriesOf(in.Chains)
	blocks := make(map[asic.PipeletID]*p4.ControlBlock, len(pipelets))
	blockHashes := make(map[asic.PipeletID]string, len(pipelets))
	ingress := make([]asic.StageFunc, in.Prof.Pipelines)
	egress := make([]asic.StageFunc, in.Prof.Pipelines)
	blocksRebuilt, funcsRebuilt := 0, 0
	var compHashes []string
	var composeFailures []lint.Finding
	for _, pl := range pipelets {
		idParts := make([]string, 0, 4)
		for _, name := range comp.PipeletNFOrder(pl) {
			idParts = append(idParts, name+"="+itoa(int(comp.NFID(name)))+":"+fps[name])
		}
		base := []string{profSig(in.Prof), pl.String(), placement.ModeOf(pl).String(),
			strings.Join(idParts, ",")}
		bh := hashOf(append([]string{"block"}, append(base, itoa(entries))...)...)
		blockHashes[pl] = bh
		if v, ok := cache.lookup("block/"+pl.String(), bh); ok {
			blocks[pl] = v.(*p4.ControlBlock)
		} else if block, err := comp.BlockFor(pl); err != nil {
			composeFailures = append(composeFailures, lint.Finding{
				Rule:     lint.RuleTableDeps,
				Severity: lint.SevError,
				Where:    pl.String(),
				Message:  fmt.Sprintf("pipelet failed to compose: %v", err),
				Fix:      "fix the NF control block so the pipelet program is well-formed",
			})
			markIncomplete()
		} else {
			blocks[pl] = block
			cache.store("block/"+pl.String(), bh, block)
			blocksRebuilt++
		}
		fh := hashOf(append([]string{"func"}, base...)...)
		var fn asic.StageFunc
		if v, ok := cache.lookup("func/"+pl.String(), fh); ok {
			fn = v.(asic.StageFunc)
		} else {
			fn = comp.FuncFor(pl)
			cache.store("func/"+pl.String(), fh, fn)
			funcsRebuilt++
			res.ChangedFuncs = append(res.ChangedFuncs, pl)
		}
		if pl.Dir == asic.Ingress {
			ingress[pl.Pipeline] = fn
		} else {
			egress[pl.Pipeline] = fn
		}
		compHashes = append(compHashes, bh, fh)
	}
	record(StageComposition, hashOf(compHashes...), blocksRebuilt+funcsRebuilt == 0,
		fmt.Sprintf("%d/%d blocks, %d/%d programs rebuilt",
			blocksRebuilt, len(pipelets), funcsRebuilt, len(pipelets)), start)

	// Stage: stage allocation, per pipelet, keyed by the block's hash.
	start = time.Now()
	plans := make(map[asic.PipeletID]*compiler.Plan, len(pipelets))
	allocRebuilt := 0
	var allocHashes []string
	for _, pl := range pipelets {
		ah := hashOf("alloc", blockHashes[pl], itoa(in.Prof.StagesPerPipelet))
		allocHashes = append(allocHashes, ah)
		if blocks[pl] == nil {
			continue
		}
		if v, ok := cache.lookup("alloc/"+pl.String(), ah); ok {
			plans[pl] = v.(*compiler.Plan)
			continue
		}
		plan, err := compiler.Allocate(blocks[pl], in.Prof.StagesPerPipelet)
		if err != nil {
			markIncomplete() // DV001 reports it, allocating the block again
			continue
		}
		plans[pl] = plan
		cache.store("alloc/"+pl.String(), ah, plan)
		allocRebuilt++
	}
	record(StageAllocation, hashOf(allocHashes...), allocRebuilt == 0,
		fmt.Sprintf("%d/%d pipelets reallocated", allocRebuilt, len(pipelets)), start)

	// Stage: routing — the branching function and its declarative table
	// program, plus the per-chain traversals.
	start = time.Now()
	routeHash := hashOf("routing", profSig(in.Prof), canonChains(in.Chains),
		canonPlacement(placement), itoa(in.Enter))
	if v, ok := cache.lookup("routing", routeHash); ok {
		art := v.(routingArtifact)
		comp.Branching = art.branching
		res.Program = art.program
		res.Traversals = art.traversals
		record(StageRouting, routeHash, true,
			fmt.Sprintf("%d table entries", art.program.Len()), start)
	} else {
		prog := comp.Branching.Program(in.Prof.Pipelines)
		travs := make([]route.Traversal, len(in.Chains))
		for i, ch := range in.Chains {
			tr, err := route.Plan(ch, placement, in.Enter)
			if err != nil {
				return nil, err
			}
			travs[i] = tr
		}
		cache.store("routing", routeHash, routingArtifact{
			branching: comp.Branching, program: prog, traversals: travs,
		})
		res.Program = prog
		res.Traversals = travs
		record(StageRouting, routeHash, false,
			fmt.Sprintf("%d table entries", prog.Len()), start)
	}

	// Stage: lint. Block-scoped findings (DV001/DV002) are cached by
	// block hash and, on a miss, read the allocation stage's plan and
	// the dependency graph it carries instead of deriving their own;
	// the parser-merge findings (DV004) come with the parser artifact;
	// the global rules read the chains, placement and branching a
	// rebuild changes and run every build. The merged, sorted report
	// equals a full lint.AnalyzeDeployment run.
	start = time.Now()
	target := &lint.Target{
		Prof: in.Prof, Chains: in.Chains, Placement: placement,
		NFs: in.NFs, Branching: comp.Branching, Blocks: blocks, Enter: in.Enter,
	}
	rep := lint.AnalyzeTarget(target, lint.GlobalRules())
	for _, f := range pa.findings {
		rep.Add(f)
	}
	for _, f := range composeFailures {
		rep.Add(f)
	}
	lintRebuilt := 0
	var lintHashes []string
	for _, pl := range pipelets {
		lh := hashOf("lint", blockHashes[pl])
		lintHashes = append(lintHashes, lh)
		var findings []lint.Finding
		if v, ok := cache.lookup("lint/"+pl.String(), lh); ok {
			findings = v.([]lint.Finding)
		} else {
			single := &lint.Target{
				Prof: in.Prof, Chains: in.Chains, Placement: placement,
				NFs: in.NFs, Branching: comp.Branching, Enter: in.Enter,
				Blocks: map[asic.PipeletID]*p4.ControlBlock{pl: blocks[pl]},
				Plans:  plans,
			}
			findings = lint.AnalyzeTarget(single, lint.BlockRules()).Findings
			cache.store("lint/"+pl.String(), lh, findings)
			lintRebuilt++
		}
		for _, f := range findings {
			rep.Add(f)
		}
	}
	rep.Sort()
	res.Lint = rep
	record(StageLint, hashOf(lintHashes...), lintRebuilt == 0,
		fmt.Sprintf("%d findings, %d/%d pipelets re-linted",
			len(rep.Findings), lintRebuilt, len(pipelets)), start)
	// Every missing artifact left an error finding, so this refuses
	// each incomplete build.
	if err := rep.GateError(); err != nil && (in.Strict || incomplete) {
		res.Info.Duration = time.Since(t0)
		return res, fmt.Errorf("pipeline: deployment rejected by verifier: %w", err)
	}

	res.Dep = comp.Assemble(pa.parser, pa.idt, blocks, ingress, egress)
	res.Composer = comp
	res.Placement = placement
	res.Cost = cost
	res.Plans = plans
	res.Info.Duration = time.Since(t0)
	cache.setPrevious(comp)
	return res, nil
}

// optName renders the optimizer for stage details.
func optName(o string) string {
	if o == "" {
		return "exhaustive"
	}
	return o
}
