package campaign

import (
	"encoding/json"
	"fmt"
	"os"
)

// Expectation values for Artifact.Expect.
const (
	// ExpectClean asserts the trace completes with no divergence (a
	// regression corpus of campaigns the engine must keep passing).
	ExpectClean = "clean"
	// ExpectDivergence asserts the trace reproduces a divergence of
	// Artifact.ExpectKind (shrunk reproducers of caught lies/bugs).
	ExpectDivergence = "divergence"
)

// Artifact is a self-contained, replayable campaign: everything needed to
// rebuild the lab and re-execute the exact action trace, plus the expected
// outcome. Graduated artifacts live in testdata/campaigns/ and are replayed
// by CI (TestCorpusReplay) and `attacksim replay`. Artifacts saved by
// earlier builds carry an "oracle" mode; it is ignored on load.
type Artifact struct {
	Name        string `json:"name"`
	Notes       string `json:"notes,omitempty"`
	Seed        int64  `json:"seed"`
	Topology    Topo   `json:"topology"`
	Subscribers int    `json:"subscribers"`
	// Expect is ExpectClean or ExpectDivergence.
	Expect string `json:"expect"`
	// ExpectKind pins the divergence stream ("verdict", "transition",
	// "stale-green") when Expect is ExpectDivergence.
	ExpectKind string   `json:"expect_kind,omitempty"`
	Actions    []Action `json:"actions"`
}

// Validate rejects malformed artifacts before any lab is built.
func (a *Artifact) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("campaign: artifact has no name")
	}
	switch a.Expect {
	case ExpectClean:
		if a.ExpectKind != "" {
			return fmt.Errorf("campaign: artifact %q: expect_kind set on a clean expectation", a.Name)
		}
	case ExpectDivergence:
	default:
		return fmt.Errorf("campaign: artifact %q: expect must be %q or %q (got %q)",
			a.Name, ExpectClean, ExpectDivergence, a.Expect)
	}
	if len(a.Actions) == 0 {
		return fmt.Errorf("campaign: artifact %q has no actions", a.Name)
	}
	for i, act := range a.Actions {
		if !KnownOp(act.Op) {
			return fmt.Errorf("campaign: artifact %q: action %d has unknown op %q", a.Name, i, act.Op)
		}
	}
	return nil
}

// Config builds the engine configuration the artifact replays under.
func (a *Artifact) Config() Config {
	return Config{
		Topo:        a.Topology,
		Seed:        a.Seed,
		Subscribers: a.Subscribers,
	}
}

// Replay re-executes the artifact's trace against a fresh lab+oracle pair.
func (a *Artifact) Replay() (*Result, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return New(a.Config()).Execute(a.Actions)
}

// Check replays the artifact and verifies the recorded expectation holds.
func (a *Artifact) Check() (*Result, error) {
	res, err := a.Replay()
	if err != nil {
		return nil, err
	}
	switch a.Expect {
	case ExpectClean:
		if res.Divergence != nil {
			return res, fmt.Errorf("campaign: artifact %q expected a clean run, got: %s", a.Name, res.Divergence)
		}
	case ExpectDivergence:
		if res.Divergence == nil {
			return res, fmt.Errorf("campaign: artifact %q expected a %s divergence, got a clean run", a.Name, a.ExpectKind)
		}
		if a.ExpectKind != "" && res.Divergence.Kind != a.ExpectKind {
			return res, fmt.Errorf("campaign: artifact %q expected a %s divergence, got: %s",
				a.Name, a.ExpectKind, res.Divergence)
		}
	}
	return res, nil
}

// LoadArtifact reads and validates one artifact JSON file.
func LoadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("campaign: artifact %s: %w", path, err)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &a, nil
}

// Save writes the artifact as indented JSON (the checked-in corpus format).
func (a *Artifact) Save(path string) error {
	if err := a.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
