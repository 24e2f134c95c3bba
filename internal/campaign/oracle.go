package campaign

import (
	"fmt"

	"repro/internal/enclave"
	"repro/internal/rvaas"
	"repro/internal/topology"
)

// oracle is the trusted differential reference: a second rvaas.Controller
// on the same topology with no attached switches, fed exclusively through
// the replay API with the primary's committed event stream, and running
// RevalidateAll once per campaign step — every standing invariant
// re-evaluated from scratch against the snapshot, consulting no recorded
// footprint, rule delta or cone cache. That is what makes it a reference:
// it shares none of the machinery that decides what the primary may skip,
// so a verdict the two disagree on is a bug in the incremental path by
// definition. (The reference paths earlier builds ran here still filtered
// by recorded footprints, so a footprint that under-recorded a switch was
// invisible to them.) Subscriptions are registered in the identical order
// as on the primary, so the engine's sequential id allocator assigns
// identical ids and verdict streams compare line-for-line.
type oracle struct {
	ctl *rvaas.Controller
}

func newOracle(topo *topology.Topology, seed int64) (*oracle, error) {
	platform, err := enclave.NewPlatform()
	if err != nil {
		return nil, fmt.Errorf("campaign: oracle platform: %w", err)
	}
	ctl, err := rvaas.New(rvaas.Config{
		Topology:      topo,
		Platform:      platform,
		ManualRecheck: true,
		Seed:          seed,
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: oracle controller: %w", err)
	}
	// Never Start()ed: the oracle needs no pollers or workers. Its switches
	// have no sessions, so a pass counts its pushes dropped without signing
	// them.
	return &oracle{ctl: ctl}, nil
}

func (o *oracle) Close() { o.ctl.Close() }
