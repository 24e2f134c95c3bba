package deploy

import (
	"bufio"
	"context"
	"fmt"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"repro/internal/procplane"
)

// childGrace is how long StopAll waits after SIGTERM before escalating to
// SIGKILL.
const childGrace = 2 * time.Second

// ChildProc is one local-exec child process (a switchd or agentd) spawned
// and supervised by the deployment.
type ChildProc struct {
	Group string

	cmd  *exec.Cmd
	done chan struct{}

	mu      sync.Mutex
	waitErr error
}

// PID reports the child's OS process id (0 before start).
func (c *ChildProc) PID() int {
	if c.cmd.Process == nil {
		return 0
	}
	return c.cmd.Process.Pid
}

// Exited reports whether the child has exited, and its wait error.
func (c *ChildProc) Exited() (bool, error) {
	select {
	case <-c.done:
		c.mu.Lock()
		defer c.mu.Unlock()
		return true, c.waitErr
	default:
		return false, nil
	}
}

// Signal delivers a signal to the child (no-op after exit).
func (c *ChildProc) Signal(sig syscall.Signal) {
	if exited, _ := c.Exited(); exited || c.cmd.Process == nil {
		return
	}
	_ = c.cmd.Process.Signal(sig)
}

// spawnChild launches argv as a lab child process, feeding it the manifest
// on stdin and forwarding its combined output line-by-line to logf.
func spawnChild(group, kind string, argv []string, manifest *procplane.Manifest, logf func(string, ...any)) (*ChildProc, error) {
	if len(argv) == 0 {
		return nil, fmt.Errorf("deploy: group %s: no %s command configured", group, kind)
	}
	mb, err := manifest.Marshal()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("deploy: spawn %s for group %s: %w", kind, group, err)
	}
	go func() {
		defer stdin.Close()
		_, _ = stdin.Write(mb)
	}()
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64<<10), 64<<10)
		for sc.Scan() {
			logf("[%s] %s", group, sc.Text())
		}
	}()
	c := &ChildProc{Group: group, cmd: cmd, done: make(chan struct{})}
	go func() {
		err := cmd.Wait()
		c.mu.Lock()
		c.waitErr = err
		c.mu.Unlock()
		close(c.done)
	}()
	return c, nil
}

// stopChildren tears down local children: SIGTERM everyone, wait up to
// childGrace, SIGKILL stragglers, then wait for every child bounded by ctx.
// Returns the names of children that had to be killed.
func stopChildren(ctx context.Context, procs []*ChildProc) []string {
	live := procs[:0:0]
	for _, c := range procs {
		if exited, _ := c.Exited(); !exited {
			c.Signal(syscall.SIGTERM)
			live = append(live, c)
		}
	}
	graceOver := make(chan struct{})
	go func() {
		select {
		case <-time.After(childGrace):
		case <-ctx.Done():
		}
		close(graceOver)
	}()
	var killed []string
	for _, c := range live {
		select {
		case <-c.done:
			continue
		case <-graceOver:
		}
		if exited, _ := c.Exited(); !exited {
			killed = append(killed, c.Group)
			c.Signal(syscall.SIGKILL)
		}
		select {
		case <-c.done:
		case <-ctx.Done():
		}
	}
	return killed
}
