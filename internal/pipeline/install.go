package pipeline

import (
	"fmt"

	"dejavu/internal/asic"
	"dejavu/internal/ctl"
	"dejavu/internal/lint"
	"dejavu/internal/route"
)

// Installed is one switch's build and the artifact cache it extended,
// adopted together; with no Res, the switch has nothing installed.
// Stage then Commit is the one way a build reaches a switch — deploy,
// live update and fabric reprogram alike — and pushes only what changed
// (§7: loading a program is expensive, writing a table entry is not).
type Installed struct {
	Res   *Result
	Cache *Cache
}

// Stage builds in against a clone of the installed cache and diffs its
// branching program against the installed one. DV009 refuses an entry
// for a table the build did not place: the switch would silently drop
// it. Stage touches neither the switch nor the installed state, so an
// abandoned stage leaves the cache at the installed generation and the
// next build of that state a provable no-op.
func (cur *Installed) Stage(in Inputs) (next Installed, delta []route.EntryOp, err error) {
	next.Cache = cur.Cache.Clone()
	if next.Res, err = Build(in, next.Cache); err != nil {
		return Installed{}, nil, err
	}
	var prog route.TableProgram
	if cur.Res != nil {
		prog = cur.Res.Program
	}
	delta = route.Diff(prog, next.Res.Program)
	if ws := lint.AnalyzeWriteSet(next.Res.Composer.Prof, next.Res.Plans, delta); ws.HasErrors() {
		return Installed{}, nil, fmt.Errorf("update rejected, switch untouched: write-set fails DV009: %s",
			ws.Findings[0].Message)
	}
	return next, delta, nil
}

// Commit puts a staged build on sw as one program transaction through
// apply: the entry write-set, then the pipelet programs the build
// rebuilt. A failure after the commit restores the installed build
// (Restore); only success installs next.
func (cur *Installed) Commit(sw *asic.Switch, ctrl *ctl.Controller, apply func(ctl.TableWrite) error, next Installed, delta []route.EntryOp) error {
	dep := next.Res.Dep
	if err := ctrl.UpdateProgram(apply, ctl.ProgramUpdate{
		Entries: delta, Pipelets: next.Res.ChangedFuncs,
		Ingress: dep.Ingress, Egress: dep.Egress, App: dep.Runtime,
	}, func() error { return cur.Restore(sw) }); err != nil {
		return err
	}
	*cur = next
	return nil
}

// Restore reinstalls the installed build's programs on sw, or empty
// programs when nothing is installed: what a failed commit leaves the
// switch running.
func (cur *Installed) Restore(sw *asic.Switch) error {
	if cur.Res != nil {
		return cur.Res.Dep.InstallOn(sw)
	}
	b := sw.NewBatch()
	for pipe := 0; pipe < sw.Profile().Pipelines; pipe++ {
		b.SetIngress(pipe, nil)
		b.SetEgress(pipe, nil)
	}
	b.SetApp(nil)
	return sw.Commit(b)
}
