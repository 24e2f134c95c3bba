package deploy

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/labspec"
	"repro/internal/rvaas"
	"repro/internal/topology"
	"repro/internal/wire"
)

func specLab(t *testing.T, yml string) *Deployment {
	t.Helper()
	spec, err := labspec.Parse([]byte(yml))
	if err != nil {
		t.Fatalf("parse spec: %v", err)
	}
	d, err := FromSpec(spec)
	if err != nil {
		t.Fatalf("FromSpec: %v", err)
	}
	t.Cleanup(d.Close)
	return d
}

func TestFromSpecUDPWithInvariants(t *testing.T) {
	d := specLab(t, `
name: udp-lab
topology:
  generator: linear
  size: 6
routing: allpairs
transport:
  kind: udp
invariants:
  - client: 1
    kind: reachable-destinations
    constraints:
      - field: ip_dst
        value: 0x0A000201   # client 2's host on a linear topology
        mask: 0xFFFFFFFF
  - client: 3
    kind: path-length
    param: "10"
`)
	if len(d.Agents) != 6 {
		t.Fatalf("agents = %d, want 6", len(d.Agents))
	}
	subs := d.RVaaS.Subscriptions()
	if len(subs) != 2 {
		t.Fatalf("subscriptions = %d, want 2", len(subs))
	}
	byClient := map[uint64]rvaas.SubscriptionInfo{}
	for _, s := range subs {
		byClient[s.ClientID] = s
	}
	if byClient[1].Kind != wire.QueryReachableDestinations || byClient[1].Violated {
		t.Fatalf("client 1 subscription: %+v", byClient[1])
	}
	if byClient[3].Kind != wire.QueryPathLength || byClient[3].Param != "10" {
		t.Fatalf("client 3 subscription: %+v", byClient[3])
	}
	// The operator-facing proof the channels are real: a live in-band query
	// crossing the UDP control plane.
	res, err := d.Agent(1).Query(wire.QueryPathLength, nil, "10")
	if err != nil {
		t.Fatalf("in-band query over UDP lab: %v", err)
	}
	if res.Status != wire.StatusOK {
		t.Fatalf("path-length 10 should hold on linear-6: %s (%s)", res.Status, res.Detail)
	}
}

func TestFromSpecExplicitTopologyTenantRouting(t *testing.T) {
	d := specLab(t, `
name: explicit-pair
topology:
  switches:
    - id: 1
      ports: 2
    - id: 2
      ports: 2
  links:
    - a:
        switch: 1
        port: 1
      b:
        switch: 2
        port: 1
  accessPoints:
    - switch: 1
      port: 2
      client: 7
    - switch: 2
      port: 2
      client: 7
routing: tenant
`)
	if len(d.Topology.Switches()) != 2 {
		t.Fatalf("switches = %d", len(d.Topology.Switches()))
	}
	if len(d.Agents) != 1 {
		t.Fatalf("agents = %d, want 1 (shared client)", len(d.Agents))
	}
}

func TestFromSpecPersistPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "subs.store")
	spec, err := labspec.Parse([]byte(`
name: persist-lab
topology:
  generator: linear
  size: 2
rvaas:
  persistPath: ` + path + `
invariants:
  - client: 1
    kind: reachable-destinations
    constraints:
      - field: ip_dst
        value: 0x0A000201
`))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := FromSpec(spec)
	if err != nil {
		t.Fatalf("FromSpec: %v", err)
	}
	d.Close()

	// The deployment-owned store was flushed and closed on shutdown; a fresh
	// store restores the registered invariant.
	store, err := rvaas.OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer store.Close()
	recs, err := store.Load()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("persisted subscriptions = %d, want 1", len(recs))
	}
}

func TestFromSpecRejectsInvalid(t *testing.T) {
	spec, err := labspec.Parse([]byte("name: bad\ntopology:\n  generator: ring\n  size: 2\n"))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := FromSpec(spec); err == nil {
		t.Fatal("FromSpec accepted an invalid spec")
	}
}

func TestShutdownOrderedAndBounded(t *testing.T) {
	d := specLab(t, `
name: shutdown-lab
topology:
  generator: star
  size: 5
transport:
  kind: udp
`)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Shutdown (and the Close from t.Cleanup) must be idempotent.
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func TestShutdownExpiredContext(t *testing.T) {
	topo, err := topology.Linear(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(topo, Options{SkipAgents: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.Shutdown(ctx); err == nil {
		t.Fatal("shutdown with expired context reported success")
	}
	// Finish the teardown for real.
	d.Close()
}
