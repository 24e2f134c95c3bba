package deploy

import (
	"fmt"

	"repro/internal/labspec"
)

// Child returns the supervised child process of a group (nil when the
// group is external or has not been spawned).
func (p *Placement) Child(name string) *ChildProc {
	p.mu.Lock()
	g := p.groups[name]
	p.mu.Unlock()
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.child
}

// Respawn relaunches a local-exec group's child process after it died, with
// the dead child's argv. The fresh process rejoins the trunk with the
// group's token and its switches re-attach over new secure channels; every
// attach re-bases, so their regressed counters converge.
func (p *Placement) Respawn(name string) error {
	p.mu.Lock()
	g := p.groups[name]
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return fmt.Errorf("deploy: lab is shut down")
	}
	if g == nil {
		return fmt.Errorf("deploy: unknown placement group %q", name)
	}
	if g.spec.Proc != labspec.ProcLocalExec {
		return fmt.Errorf("deploy: group %q is %s, only local-exec groups can be respawned", name, g.spec.Proc)
	}
	g.mu.Lock()
	old := g.child
	g.mu.Unlock()
	if old == nil {
		return fmt.Errorf("deploy: group %q has no child to respawn", name)
	}
	if exited, _ := old.Exited(); !exited {
		return fmt.Errorf("deploy: group %q child (pid %d) is still running", name, old.PID())
	}
	child, err := spawnChild(g.spec.Name, g.role, old.cmd.Args, p.manifestFor(g), p.logf)
	if err != nil {
		return err
	}
	g.mu.Lock()
	g.child = child
	g.detail = ""
	g.mu.Unlock()
	return nil
}

// Done exposes the exit notification channel.
func (c *ChildProc) Done() <-chan struct{} { return c.done }
