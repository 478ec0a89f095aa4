// Package compiler implements the stage allocator for composed pipelet
// programs: the role the P4 compiler's table placement and resource
// report play in the paper (§3.2 cites the compiler as the source of
// "the exact amount of resource usage, e.g., MAU stages, SRAMs, TCAMs,
// of a P4 program").
//
// Tables are assigned to MAU stages respecting the dependency taxonomy
// of Jose et al. (NSDI '15): match and action dependencies force a
// strictly later stage; successor dependencies allow same-stage
// placement through predication; independent tables pack freely
// subject to per-stage resource capacity.
package compiler

import (
	"fmt"
	"strings"
	"sync"

	"dejavu/internal/asic"
	"dejavu/internal/mau"
	"dejavu/internal/p4"
)

// StageUsage describes one MAU stage of an allocation.
type StageUsage struct {
	Tables       []string
	Used         mau.Resources
	HasFramework bool // contains at least one Dejavu framework table
}

// Plan is the stage allocation of one pipelet program.
type Plan struct {
	Block      *p4.ControlBlock
	Stages     []StageUsage
	TableStage map[string]int // table name -> stage index
	// Deps is the block's table dependency graph (Block.Deps()) the
	// stages were allocated from; later passes over the same block read
	// it here instead of deriving it again.
	Deps []p4.Dep
}

// StagesUsed returns the number of stages with at least one table.
func (p *Plan) StagesUsed() int { return len(p.Stages) }

// Total returns the aggregate resource usage of the plan.
func (p *Plan) Total() mau.Resources {
	var r mau.Resources
	for _, s := range p.Stages {
		r = r.Add(s.Used)
	}
	return r
}

// FrameworkStages returns the number of stages that hold at least one
// Dejavu framework table.
func (p *Plan) FrameworkStages() int {
	n := 0
	for _, s := range p.Stages {
		if s.HasFramework {
			n++
		}
	}
	return n
}

// String renders the plan stage by stage.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan %s: %d stages\n", p.Block.Name, len(p.Stages))
	for i, s := range p.Stages {
		fmt.Fprintf(&sb, "  stage %2d: %s (%s)\n", i, strings.Join(s.Tables, ", "), s.Used)
	}
	return sb.String()
}

// Allocate assigns the tables of a control block to at most maxStages
// MAU stages. It returns an error when the program cannot fit — the
// failure mode §3.2 warns about for sequential composition ("which may
// fail if the pipelet does not have enough stages").
func Allocate(cb *p4.ControlBlock, maxStages int) (*Plan, error) {
	if err := cb.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: %w", err)
	}
	order, err := cb.AppliedOrder()
	if err != nil {
		return nil, err
	}
	deps, err := cb.Deps()
	if err != nil {
		return nil, err
	}
	assigned := make(map[string]int, len(order))

	// depsTo[t] = dependencies pointing at t.
	depsTo := make(map[string][]p4.Dep)
	for _, d := range deps {
		depsTo[d.To] = append(depsTo[d.To], d)
	}

	plan := &Plan{
		Block:      cb,
		TableStage: assigned,
		Deps:       deps,
	}
	// Grown on demand: maxStages is a budget (MinStages passes 1<<20),
	// not an expected size.
	var (
		stageUsed      []mau.Resources
		stageTables    [][]string
		stageFramework []bool
	)
	cap := mau.StageCapacity()

	seen := make(map[string]bool, len(order))
	for _, t := range order {
		if seen[t.Name] {
			continue // applied in multiple branches: placed once
		}
		seen[t.Name] = true

		min := 0
		for _, d := range depsTo[t.Name] {
			from, ok := assigned[d.From]
			if !ok {
				continue // dependency on a later application site
			}
			switch d.Kind {
			case p4.DepMatch, p4.DepAction:
				if from+1 > min {
					min = from + 1
				}
			case p4.DepSuccessor:
				if from > min {
					min = from
				}
			}
		}
		// Oversized tables are split into per-stage slices, the way
		// production compilers spread a large FIB over consecutive
		// stages; each slice holds a share of the entries and the
		// lookup result is the slice that matched.
		slices, err := sliceTable(t)
		if err != nil {
			return nil, err
		}
		next := min
		for i, sl := range slices {
			need := mau.EstimateTable(sl)
			placed := false
			for s := next; s < maxStages; s++ {
				for len(stageUsed) <= s {
					stageUsed = append(stageUsed, mau.Resources{})
					stageTables = append(stageTables, nil)
					stageFramework = append(stageFramework, false)
				}
				if stageUsed[s].Add(need).FitsIn(cap) {
					stageUsed[s] = stageUsed[s].Add(need)
					stageTables[s] = append(stageTables[s], sl.Name)
					if t.Framework {
						stageFramework[s] = true
					}
					// Later slices record the deepest stage so
					// dependents land after the whole table.
					assigned[t.Name] = s
					next = s // further slices may not precede this one
					placed = true
					break
				}
			}
			if !placed {
				return nil, fmt.Errorf(
					"compiler: table %s does not fit: slice %d/%d needs a stage >= %d of %d (%s per stage)",
					t.Name, i+1, len(slices), next, maxStages, need)
			}
		}
	}
	// Trim trailing empty stages and account gateway usage (spread over
	// the used stages; gateways guard table execution).
	last := -1
	for i, tbls := range stageTables {
		if len(tbls) > 0 {
			last = i
		}
	}
	for i := 0; i <= last; i++ {
		plan.Stages = append(plan.Stages, StageUsage{
			Tables:       stageTables[i],
			Used:         stageUsed[i],
			HasFramework: stageFramework[i],
		})
	}
	if gw := cb.GatewayCount(); gw > 0 && len(plan.Stages) > 0 {
		per := gw / len(plan.Stages)
		rem := gw % len(plan.Stages)
		for i := range plan.Stages {
			plan.Stages[i].Used.Gateways += per
			if i < rem {
				plan.Stages[i].Used.Gateways++
			}
		}
	}
	return plan, nil
}

// sliceTable splits a table whose resource demand exceeds one empty
// stage into entry-range slices that each fit. Tables that fit are
// returned unchanged as a single slice.
func sliceTable(t *p4.Table) ([]*p4.Table, error) {
	cap := mau.StageCapacity()
	if mau.EstimateTable(t).FitsIn(cap) {
		return []*p4.Table{t}, nil
	}
	// Find the largest per-slice size that fits by halving.
	size := t.Size
	if size <= 1 {
		return nil, fmt.Errorf("compiler: table %s exceeds a whole stage irrespective of entries", t.Name)
	}
	per := size
	for per > 1 {
		trial := *t
		trial.Size = per
		if mau.EstimateTable(&trial).FitsIn(cap) {
			break
		}
		per = (per + 1) / 2
	}
	trial := *t
	trial.Size = per
	if !mau.EstimateTable(&trial).FitsIn(cap) {
		return nil, fmt.Errorf("compiler: table %s cannot be sliced to fit a stage", t.Name)
	}
	n := (size + per - 1) / per
	slices := make([]*p4.Table, 0, n)
	remaining := size
	for i := 0; i < n; i++ {
		sl := *t
		sl.Name = fmt.Sprintf("%s$%d", t.Name, i)
		sl.Size = per
		if remaining < per {
			sl.Size = remaining
		}
		remaining -= sl.Size
		slices = append(slices, &sl)
	}
	return slices, nil
}

// MinStages returns the number of stages a control block needs with
// unlimited stage budget — the measure used to decide whether two NFs
// can share a pipelet. A shared, frozen block (p4.SharedControl) is
// allocated once per process.
func MinStages(cb *p4.ControlBlock) (int, error) {
	if n, ok := sharedMinStages.Load(cb); ok {
		return n.(int), nil
	}
	plan, err := Allocate(cb, 1<<20)
	if err != nil {
		return 0, err
	}
	if cb.Frozen() {
		sharedMinStages.Store(cb, plan.StagesUsed())
	}
	return plan.StagesUsed(), nil
}

// sharedMinStages maps each frozen block MinStages has allocated to its
// demand: one entry per shared block.
var sharedMinStages sync.Map

// ResourceLine is one row of the ASIC-wide resource report.
type ResourceLine struct {
	Name    string
	Used    int
	Total   int
	Percent float64
}

// Report is an ASIC-wide resource usage summary in the format of the
// paper's Table 1, restricted to a chosen set of tables (e.g. only
// Dejavu framework tables).
type Report struct {
	Lines []ResourceLine
}

// Get returns the line with the given name.
func (r Report) Get(name string) (ResourceLine, bool) {
	for _, l := range r.Lines {
		if l.Name == name {
			return l, true
		}
	}
	return ResourceLine{}, false
}

// String renders the report as an aligned table.
func (r Report) String() string {
	var sb strings.Builder
	for _, l := range r.Lines {
		fmt.Fprintf(&sb, "%-10s %6d / %6d  %5.1f%%\n", l.Name, l.Used, l.Total, l.Percent)
	}
	return sb.String()
}

// FrameworkReport computes the Table-1 style resource overhead of
// Dejavu framework tables across an ASIC: the set of per-pipelet plans
// is inspected for tables marked Framework, and their usage is
// expressed as a percentage of the whole ASIC's capacity.
//
// Stage accounting follows the paper: a stage "consumed" by Dejavu is
// one that holds a framework table, even though NF tables may share it
// ("Dejavu does not use the stages exclusively").
func FrameworkReport(prof asic.Profile, plans []*Plan) Report {
	totalStages := prof.TotalStages()
	capPerStage := mau.StageCapacity()

	var fwStages int
	var fw mau.Resources
	for _, p := range plans {
		if p == nil {
			continue
		}
		fwStages += p.FrameworkStages()
		for _, t := range p.Block.Tables {
			if t.Framework {
				fw = fw.Add(mau.EstimateTable(t))
			}
		}
		// Framework gateways: the check_nextNF conditions.
		fw.Gateways += frameworkGateways(p.Block)
	}

	pct := func(used, total int) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(used) / float64(total)
	}
	mk := func(name string, used, total int) ResourceLine {
		return ResourceLine{Name: name, Used: used, Total: total, Percent: pct(used, total)}
	}
	return Report{Lines: []ResourceLine{
		mk("Stages", fwStages, totalStages),
		mk("TableIDs", fw.TableIDs, totalStages*capPerStage.TableIDs),
		mk("Gateways", fw.Gateways, totalStages*capPerStage.Gateways),
		mk("Crossbars", fw.ExactXbarB+fw.TernaryXbarB, totalStages*(capPerStage.ExactXbarB+capPerStage.TernaryXbarB)),
		mk("VLIWs", fw.VLIWSlots, totalStages*capPerStage.VLIWSlots),
		mk("SRAM", fw.SRAMBlocks, totalStages*capPerStage.SRAMBlocks),
		mk("TCAM", fw.TCAMBlocks, totalStages*capPerStage.TCAMBlocks),
	}}
}

// frameworkGateways counts gateway conditions that reference SFC
// metadata — the framework's next-NF dispatch conditions.
func frameworkGateways(cb *p4.ControlBlock) int {
	n := 0
	var walk func(body []p4.Stmt)
	walk = func(body []p4.Stmt) {
		for _, s := range body {
			if st, ok := s.(p4.IfStmt); ok {
				if strings.HasPrefix(string(st.Cond.Field), "meta.next_nf") ||
					strings.HasPrefix(string(st.Cond.Field), "sfc.") {
					n++
				}
				walk(st.Then)
				walk(st.Else)
			}
		}
	}
	walk(cb.Body)
	return n
}
