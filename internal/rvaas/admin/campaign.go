package admin

// CampaignDivergenceView is one differential-oracle failure.
type CampaignDivergenceView struct {
	Step   int    `json:"step"`
	Action string `json:"action"`
	// Kind is "verdict", "transition" or "stale-green".
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// CampaignView is the live progress of an adversarial campaign run against
// this controller (attacksim run --admin). A deployment with no campaign
// engine attached reports a conflict on GET /v1/campaign.
type CampaignView struct {
	Running       bool                    `json:"running"`
	Seed          int64                   `json:"seed"`
	Step          int                     `json:"step"`
	Steps         int                     `json:"steps"`
	LastAction    string                  `json:"lastAction,omitempty"`
	Events        int                     `json:"events"`
	Transitions   int                     `json:"transitions"`
	Diverged      bool                    `json:"diverged"`
	Divergence    *CampaignDivergenceView `json:"divergence,omitempty"`
	Fingerprint   string                  `json:"fingerprint,omitempty"`
	StaleGreenMax string                  `json:"staleGreenMax,omitempty"`
}

// WithCampaign attaches a campaign progress source (the campaign engine's
// status snapshot). Returns the service for chaining.
func (s *Service) WithCampaign(fn func() CampaignView) *Service {
	s.campaign = fn
	return s
}

// Campaign reports the attached campaign engine's progress. Without one the
// operation conflicts (this deployment runs no campaign).
func (s *Service) Campaign() (CampaignView, error) {
	if s.campaign == nil {
		return CampaignView{}, conflict("no campaign engine attached to this deployment")
	}
	return s.campaign(), nil
}
