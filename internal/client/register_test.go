package client_test

import (
	"testing"

	"repro/internal/deploy"
	"repro/internal/topology"
	"repro/internal/verifier"
	"repro/internal/wire"
)

// TestSubscribeRejectedInBand: Subscribe is a one-item registration, and an
// item the server rejects comes back as Subscribe's error with the server's
// reason, leaving nothing routed at the agent and nothing registered at the
// server. A path-length invariant needs an integer bound, so a real RVaaS
// rejects "far" in verifier.NewSubscription.
func TestSubscribeRejectedInBand(t *testing.T) {
	topo, err := topology.Linear(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.New(topo, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	agent := d.Agent(topo.AccessPoints()[0].ClientID)

	_, want := verifier.NewSubscription(0, verifier.Source{}, wire.QueryPathLength, nil, "far", verifier.Anchor{})
	if want == nil {
		t.Fatal("verifier accepts a non-integer path-length bound")
	}
	sub, err := agent.Subscribe(wire.QueryPathLength, nil, "far")
	if sub != nil || err == nil || err.Error() != "client: subscription rejected: "+want.Error() {
		t.Fatalf("Subscribe = (%v, %v), want the rejection %q", sub, err, want)
	}
	if n := agent.NonceRoutes(); n != 0 {
		t.Fatalf("rejected subscribe left %d nonce route(s)", n)
	}
	if st := d.RVaaS.SubscriptionStats(); st.Registered != 0 || st.Active != 0 {
		t.Fatalf("rejected subscribe registered at the server: %+v", st)
	}

	// The same agent still registers a valid invariant through the same
	// exchange.
	sub, err = agent.Subscribe(wire.QueryPathLength, nil, "8")
	if err != nil {
		t.Fatal(err)
	}
	if sub.InitialStatus != wire.StatusOK || agent.NonceRoutes() != 1 {
		t.Fatalf("valid subscribe: status %v, %d nonce route(s)", sub.InitialStatus, agent.NonceRoutes())
	}
}
