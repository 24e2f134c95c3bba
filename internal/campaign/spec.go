package campaign

import (
	"fmt"

	"repro/internal/labspec"
)

// FromSpec builds a campaign configuration from a validated lab spec with a
// campaign: section. The campaign reuses the spec's topology section (the
// single source of truth for lab shape) but always runs a fresh
// single-process deployment: placement, agents and declared invariants do
// not apply to campaign labs.
func FromSpec(s *labspec.Spec) (Config, error) {
	if s.Campaign == nil {
		return Config{}, fmt.Errorf("campaign: spec %q has no campaign section", s.Name)
	}
	if err := s.Validate(); err != nil {
		return Config{}, err
	}
	topo, err := topoFromSpec(s.Topology)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Topo:          topo,
		Seed:          s.Campaign.Seed,
		Steps:         s.Campaign.Steps,
		Weights:       s.Campaign.Weights,
		Subscribers:   s.Campaign.Subscribers,
		LieStep:       s.Campaign.LieStep,
		SettleTimeout: s.Campaign.SettleTimeout.Std(),
	}, nil
}

// topoFromSpec maps the replayable subset of the spec topology grammar onto
// the campaign's serializable lab recipe.
func topoFromSpec(t labspec.TopologySpec) (Topo, error) {
	switch t.Generator {
	case "linear", "ring", "star":
		return Topo{Kind: t.Generator, A: t.Size}, nil
	case "grid":
		return Topo{Kind: "grid", A: t.Rows, B: t.Cols}, nil
	case "fattree":
		return Topo{Kind: "fattree", A: t.K}, nil
	}
	return Topo{}, fmt.Errorf("campaign: topology generator %q is not replayable in a campaign (want linear, ring, star, grid or fattree)", t.Generator)
}
