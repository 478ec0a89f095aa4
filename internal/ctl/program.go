package ctl

import (
	"fmt"

	"dejavu/internal/asic"
	"dejavu/internal/route"
)

// Program transactions: the control-plane half of a live
// reconfiguration (§7). A rebuild produces a minimal write-set — the
// branching-table entry diff plus the pipelet programs whose NF sets
// changed — and UpdateProgram stages those writes one by one (each goes
// through the caller's retrying driver like any other table write),
// then commits them to the switch as ONE atomic snapshot swap. Until
// the commit nothing touches the data plane, and a packet in flight
// finishes under the snapshot it started with.
//
// Staging is idempotent per key (re-applying a write after an
// ambiguous failure is safe), which is exactly the contract the
// fault.FlakyApplier retry model requires.

// Framework write surface, routed through Controller.Apply:
//
//	{"framework", "branching", [op route.EntryOp]}
//	{"framework", "pipelet_program", [pl asic.PipeletID, fn asic.StageFunc]}
const (
	// FrameworkNF is the pseudo-NF owning the framework tables.
	FrameworkNF = "framework"
	// BranchingTable is the §3.4 branching table (entry-diff writes).
	BranchingTable = "branching"
	// PipeletProgramTable holds the behavioural pipelet programs.
	PipeletProgramTable = "pipelet_program"
)

// pendingProgram accumulates staged framework writes of one open
// transaction.
type pendingProgram struct {
	entries map[route.EntryKey]route.EntryOp
	ingress map[int]asic.StageFunc
	egress  map[int]asic.StageFunc
}

// BeginProgram opens a program transaction. Only one may be open at a
// time.
func (c *Controller) BeginProgram() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prog != nil {
		return fmt.Errorf("ctl: a program transaction is already open")
	}
	c.prog = &pendingProgram{
		entries: make(map[route.EntryKey]route.EntryOp),
		ingress: make(map[int]asic.StageFunc),
		egress:  make(map[int]asic.StageFunc),
	}
	return nil
}

// AbortProgram discards the open transaction (no-op when none is
// open). The switch is untouched.
func (c *Controller) AbortProgram() {
	c.mu.Lock()
	c.prog = nil
	c.mu.Unlock()
}

// CommitProgram publishes every staged write plus the new application
// runtime to the switch as one atomic snapshot swap and closes the
// transaction. On error the transaction stays open (the caller decides
// between retry and Abort) and the switch is untouched.
func (c *Controller) CommitProgram(app any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prog == nil {
		return fmt.Errorf("ctl: no open program transaction to commit")
	}
	b := c.sw.NewBatch()
	for pipe, fn := range c.prog.ingress {
		b.SetIngress(pipe, fn)
	}
	for pipe, fn := range c.prog.egress {
		b.SetEgress(pipe, fn)
	}
	b.SetApp(app)
	if err := c.sw.Commit(b); err != nil {
		return err
	}
	c.programCommits++
	c.entryWrites += len(c.prog.entries)
	c.programWrites += len(c.prog.ingress) + len(c.prog.egress)
	c.prog = nil
	return nil
}

// ProgramUpdate is the write-set of one program transaction: the
// branching-table entry diff, the pipelets whose behavioural program is
// replaced (each looked up in Ingress or Egress by its pipeline), and
// the application runtime the commit publishes with them.
type ProgramUpdate struct {
	Entries         []route.EntryOp
	Pipelets        []asic.PipeletID
	Ingress, Egress []asic.StageFunc
	App             any
}

// UpdateProgram runs one program transaction: open, stage every write
// of u through apply, commit. A failure up to the commit aborts and the
// switch is untouched; one after it (VerifyCommit) reinstalls the prior
// programs through restore, so the switch never runs new programs
// against the caller's stale bookkeeping.
// Callers adopt the new state only on a nil return.
func (c *Controller) UpdateProgram(apply func(TableWrite) error, u ProgramUpdate, restore func() error) error {
	if err := c.BeginProgram(); err != nil {
		return err
	}
	err := stageUpdate(apply, u)
	if err == nil {
		err = c.CommitProgram(u.App)
	}
	if err != nil {
		c.AbortProgram()
		return fmt.Errorf("update rejected, switch untouched: %w", err)
	}
	if c.VerifyCommit == nil {
		return nil
	}
	cause := c.VerifyCommit()
	if cause == nil {
		return nil
	}
	if err := restore(); err != nil {
		return fmt.Errorf("update failed (%w) AND rollback failed: %v", cause, err)
	}
	return fmt.Errorf("update rejected, switch rolled back to prior programs: %w", cause)
}

// stageUpdate pushes every write of u through apply, entries first.
func stageUpdate(apply func(TableWrite) error, u ProgramUpdate) error {
	for _, op := range u.Entries {
		if err := apply(TableWrite{NF: FrameworkNF, Table: BranchingTable, Args: []any{op}}); err != nil {
			return err
		}
	}
	for _, pl := range u.Pipelets {
		fn := u.Egress[pl.Pipeline]
		if pl.Dir == asic.Ingress {
			fn = u.Ingress[pl.Pipeline]
		}
		if err := apply(TableWrite{NF: FrameworkNF, Table: PipeletProgramTable, Args: []any{pl, fn}}); err != nil {
			return err
		}
	}
	return nil
}

// stageFramework handles Apply writes against the framework pseudo-NF:
// they are staged into the open program transaction rather than
// applied immediately, because framework state must change atomically
// with the pipelet programs.
func (c *Controller) stageFramework(w TableWrite) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prog == nil {
		return fmt.Errorf("ctl: framework write outside a program transaction (call BeginProgram first)")
	}
	bad := func() error {
		return fmt.Errorf("ctl: bad arguments for %s/%s", w.NF, w.Table)
	}
	switch w.Table {
	case BranchingTable:
		if len(w.Args) != 1 {
			return bad()
		}
		op, ok := w.Args[0].(route.EntryOp)
		if !ok {
			return bad()
		}
		c.prog.entries[op.Entry.Key] = op
		return nil
	case PipeletProgramTable:
		if len(w.Args) != 2 {
			return bad()
		}
		pl, ok1 := w.Args[0].(asic.PipeletID)
		fn, ok2 := w.Args[1].(asic.StageFunc)
		if !ok1 || !ok2 {
			return bad()
		}
		if pl.Pipeline < 0 || pl.Pipeline >= c.sw.Profile().Pipelines {
			return fmt.Errorf("ctl: pipelet %s does not exist", pl)
		}
		if pl.Dir == asic.Ingress {
			c.prog.ingress[pl.Pipeline] = fn
		} else {
			c.prog.egress[pl.Pipeline] = fn
		}
		return nil
	default:
		return fmt.Errorf("ctl: unknown table %s/%s", w.NF, w.Table)
	}
}
