package deploy

import (
	"context"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/labspec"
	"repro/internal/procplane"
	"repro/internal/rvaas"
	"repro/internal/rvaas/admin"
	"repro/internal/wire"
)

// TestMain doubles as the child-process entry point: the placed e2e spawns
// this very test binary with the --placed-child marker, so the lab's
// switchd/agentd children are real OS processes without needing prebuilt
// binaries on PATH.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--placed-child" {
		runPlacedChild()
		return
	}
	os.Exit(m.Run())
}

func runPlacedChild() {
	log.SetFlags(0)
	mf, err := procplane.ReadManifest(os.Stdin)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch mf.Kind {
	case procplane.KindSwitchd:
		err = procplane.RunSwitchd(ctx, mf, log.Printf)
	case procplane.KindAgentd:
		err = procplane.RunAgentd(ctx, mf, log.Printf)
	}
	if err != nil {
		log.Fatal(err)
	}
	os.Exit(0)
}

// reexecChild spawns children as re-executions of this test binary.
func reexecChild(string) []string { return []string{os.Args[0], "--placed-child"} }

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

const placedSpecYAML = `
name: placed-lab
topology:
  generator: linear
  size: 4
transport:
  kind: udp
placement:
  joinTimeout: 30s
  groups:
    - name: left
      proc: local-exec
      switches: [2]
    - name: right
      proc: local-exec
      switches: [3, 4]
    - name: edge
      proc: local-exec
      agents: [3]
invariants:
  - client: 1
    kind: reachable-destinations
    constraints:
      - field: ip_dst
        value: 0x0A000401   # client 4's host, behind both child seams
        mask: 0xFFFFFFFF
  - client: 3
    kind: path-length
    param: "10"
`

// TestPlacedLabLifecycle is the multi-process e2e: a linear-4 lab whose
// middle and right switches live in two spawned switchd processes and
// whose client 3 agent lives in a spawned agentd process, all joined over
// the trunk with switch control channels on real UDP.
//
// Lifecycle under test: bring-up converges with standing invariants green
// across three processes; SIGKILL of one switchd mid-churn degrades the
// invariants over its switches (never stale-green); a respawned process
// rejoins, its switches re-attach (every attach re-bases), and — once the
// provider reprograms them — the invariants recover.
func TestPlacedLabLifecycle(t *testing.T) {
	spec, err := labspec.Parse([]byte(placedSpecYAML))
	if err != nil {
		t.Fatalf("parse spec: %v", err)
	}
	d, err := FromSpecPlaced(spec, PlacedConfig{ChildCommand: reexecChild, Logf: t.Logf})
	if err != nil {
		t.Fatalf("FromSpecPlaced: %v", err)
	}
	t.Cleanup(d.Close)
	p := d.Placed
	if p == nil {
		t.Fatal("placed spec produced a single-process deployment")
	}

	// Three real child processes, none of them this one.
	left, right, edge := p.Child("left"), p.Child("right"), p.Child("edge")
	if left == nil || right == nil || edge == nil {
		t.Fatalf("children = %v %v %v, want three", left, right, edge)
	}
	self := os.Getpid()
	pids := map[int]bool{}
	for _, c := range []*ChildProc{left, right, edge} {
		if c.PID() == 0 || c.PID() == self {
			t.Fatalf("child %s pid = %d", c.Group, c.PID())
		}
		pids[c.PID()] = true
	}
	if len(pids) != 3 {
		t.Fatalf("children share pids: %v", pids)
	}

	// Bring-up: every switch session live, both invariants registered
	// (client 3's arrives asynchronously from the agentd child) and green.
	for _, ss := range d.RVaaS.SwitchSessions() {
		if !ss.Attached() {
			t.Fatalf("switch %d state = %q after bring-up", ss.Switch, ss.State)
		}
	}
	if d.Agent(3) != nil {
		t.Fatal("client 3 is placed, controller must not host its agent")
	}
	waitFor(t, "both invariants registered and green", func() bool {
		subs := d.RVaaS.Subscriptions()
		if len(subs) != 2 {
			return false
		}
		for _, s := range subs {
			if s.Violated {
				return false
			}
		}
		return true
	})
	waitFor(t, "all processes healthy", func() bool {
		for _, h := range p.ProcHealth() {
			if h.State != admin.ProcStateRunning {
				return false
			}
		}
		return true
	})

	// A live in-band query from the controller-hosted client 1 crossing the
	// placed data plane.
	res, err := d.Agent(1).Query(wire.QueryPathLength, nil, "10")
	if err != nil {
		t.Fatalf("in-band query across process seams: %v", err)
	}
	if res.Status != wire.StatusOK {
		t.Fatalf("path-length 10 on linear-4 = %s (%s)", res.Status, res.Detail)
	}

	// Provider churn: keep reprogramming routing while the kill lands, and
	// keep going afterwards so the respawned switches get their rules back
	// (programming a dead group fails fast; that error is the point).
	churnStop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for {
			select {
			case <-churnStop:
				return
			case <-time.After(50 * time.Millisecond):
				_ = d.Provider.InstallAllPairs()
			}
		}
	}()
	defer func() { close(churnStop); <-churnDone }()

	// SIGKILL the right switchd: no transport close, no goodbye — only
	// heartbeat silence. Its switches must go detached and the reachability
	// invariant through them must degrade, never stay stale-green.
	right.Signal(syscall.SIGKILL)
	<-right.Done()
	waitFor(t, "killed process reported exited", func() bool {
		for _, h := range p.ProcHealth() {
			if h.Name == "right" {
				return h.State == admin.ProcStateExited
			}
		}
		return false
	})
	waitFor(t, "switches 3 and 4 detached", func() bool {
		for _, ss := range d.RVaaS.SwitchSessions() {
			if (ss.Switch == 3 || ss.Switch == 4) && ss.State != rvaas.SwitchDetached {
				return false
			}
		}
		return true
	})
	waitFor(t, "reachability invariant degraded", func() bool {
		for _, s := range d.RVaaS.Subscriptions() {
			if s.ClientID == 1 && s.Violated {
				return true
			}
		}
		return false
	})

	// Respawn: the fresh process rejoins with the same token, its switches
	// re-attach over new secure channels and re-base, the churning
	// provider reinstalls their rules, and the invariants converge green.
	if err := p.Respawn("right"); err != nil {
		t.Fatalf("respawn: %v", err)
	}
	waitFor(t, "all switches re-attached", func() bool {
		for _, ss := range d.RVaaS.SwitchSessions() {
			if !ss.Attached() {
				return false
			}
		}
		return true
	})
	waitFor(t, "invariants recovered after reattach", func() bool {
		subs := d.RVaaS.Subscriptions()
		if len(subs) != 2 {
			return false
		}
		for _, s := range subs {
			if s.Violated {
				return false
			}
		}
		return true
	})
	waitFor(t, "all processes healthy again", func() bool {
		for _, h := range p.ProcHealth() {
			if h.State != admin.ProcStateRunning {
				return false
			}
		}
		return true
	})
	if st := d.RVaaS.Stats(); st.Reattaches < 2 {
		t.Errorf("reattaches = %d, want >= 2 (switches 3 and 4)", st.Reattaches)
	}

	// Ordered, bounded teardown: agents -> procs (SIGTERM children) ->
	// rvaas -> listeners -> fabric.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, c := range []*ChildProc{left, edge} {
		if exited, _ := c.Exited(); !exited {
			t.Errorf("child %s still running after shutdown", c.Group)
		}
	}
}

// TestPlacedSpecExternalRendezvous: external groups get a manifest written
// to the rendezvous dir instead of a spawned child, and the lab refuses to
// come up when the external process never joins.
func TestPlacedSpecExternalRendezvous(t *testing.T) {
	dir := t.TempDir()
	spec, err := labspec.Parse([]byte(`
name: ext-lab
topology:
  generator: linear
  size: 2
transport:
  kind: udp
placement:
  rendezvousDir: ` + dir + `
  joinTimeout: 1s
  groups:
    - name: ext
      proc: external
      token: s3cret
      switches: [2]
`))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := FromSpecPlaced(spec, PlacedConfig{Logf: t.Logf}); err == nil {
		t.Fatal("lab came up without the external group joining")
	}
	m, err := procplane.LoadManifest(dir + "/ext.json")
	if err != nil {
		t.Fatalf("rendezvous manifest: %v", err)
	}
	if m.Lab != "ext-lab" || m.Kind != procplane.KindSwitchd || m.Token != "s3cret" {
		t.Fatalf("manifest = %+v", m)
	}
	if len(m.Switches) != 1 || m.Switches[0] != 2 {
		t.Fatalf("manifest switches = %v", m.Switches)
	}
}

// TestPlacedJoinRefusals: the trunk refuses a join with the wrong token
// before issuing any credentials, and the lab stays healthy afterwards.
func TestPlacedJoinRefusals(t *testing.T) {
	spec, err := labspec.Parse([]byte(`
name: refuse-lab
topology:
  generator: linear
  size: 2
transport:
  kind: udp
agents:
  skip: true
placement:
  groups:
    - name: g
      proc: local-exec
      switches: [2]
`))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := FromSpecPlaced(spec, PlacedConfig{ChildCommand: reexecChild, Logf: t.Logf})
	if err != nil {
		t.Fatalf("FromSpecPlaced: %v", err)
	}
	t.Cleanup(d.Close)

	// A duplicate join with a bogus token must be refused.
	ctx := context.Background()
	bad := &procplane.Manifest{
		Lab: "refuse-lab", Group: "g", Kind: procplane.KindSwitchd,
		Token: "wrong", Trunk: d.Placed.TrunkAddr(), Switches: []uint32{2},
	}
	err = procplane.RunSwitchd(ctx, bad, nil)
	if err == nil || !strings.Contains(err.Error(), "bad token") {
		t.Fatalf("bad-token join error = %v", err)
	}
	// Topology still healthy.
	for _, ss := range d.RVaaS.SwitchSessions() {
		if !ss.Attached() {
			t.Errorf("switch %d state = %q after refused join", ss.Switch, ss.State)
		}
	}
}
