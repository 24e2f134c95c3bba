// Package faultinject is the lab's fault plane: a deterministic, seeded
// layer that perturbs the two transports a placed lab depends on — the
// UDP secure-channel attach path (drop / latency / reorder / duplicate,
// via a Transport wrapper) and the TCP trunk (partition windows, stalls,
// resets, beat starvation, via per-message verdicts consulted by the
// deploy controller) — plus one-shot process kills.
//
// Faults come from two places: scheduled windows declared in the lab
// spec's faults: section (offsets relative to bring-up), and runtime
// windows injected mid-run over the admin API. All randomness flows from
// one seed so a fault profile replays the same drop/delay sequence run
// over run.
package faultinject

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Fault targets.
const (
	// TargetTrunk perturbs one group's TCP trunk messages.
	TargetTrunk = "trunk"
	// TargetChannel perturbs the UDP secure-channel attach path.
	TargetChannel = "channel"
	// TargetProc kills one group's child process (one-shot).
	TargetProc = "proc"
)

// Trunk / proc fault kinds.
const (
	// KindPartition drops every trunk message in both directions and
	// refuses (retryably) new joins while active.
	KindPartition = "partition"
	// KindStall delays every trunk message by the window's latency
	// (default stallDelay) without dropping it.
	KindStall = "stall"
	// KindReset closes the group's trunk connection once when the window
	// opens.
	KindReset = "reset"
	// KindStarveBeats drops only child->controller liveness beats: data
	// flows, liveness does not — the nastiest stale-green probe.
	KindStarveBeats = "starve-beats"
	// KindKill SIGKILLs the group's child process once when the window
	// opens. Unlike a trunk fault it does not heal: nothing respawns the
	// child.
	KindKill = "kill"
)

// stallDelay is the per-message delay of a stall window that names no
// profile latency.
const stallDelay = 500 * time.Millisecond

// Profile is a named channel perturbation: independent per-message
// probabilities plus a latency band.
type Profile struct {
	Name string
	// Drop / Duplicate / Reorder are probabilities in [0, 1], rolled per
	// message (drop applies on both send and receive; duplicate and
	// reorder on send).
	Drop      float64
	Duplicate float64
	Reorder   float64
	// Latency delays each sent message; Jitter adds a uniform draw from
	// [0, Jitter) on top.
	Latency time.Duration
	Jitter  time.Duration
}

func (p Profile) validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"drop", p.Drop}, {"duplicate", p.Duplicate}, {"reorder", p.Reorder}} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("faultinject: profile %q: %s probability %v outside [0, 1]", p.Name, pr.name, pr.v)
		}
	}
	if p.Latency < 0 || p.Jitter < 0 {
		return fmt.Errorf("faultinject: profile %q: negative latency", p.Name)
	}
	return nil
}

// Window is one scheduled or injected fault: a target selector, a kind or
// profile, and an activity span. A zero Until keeps the window open until
// cleared.
type Window struct {
	ID     uint64
	Target string
	// Group selects the placement group for trunk/proc targets.
	Group string
	// Switch selects one switch for channel targets (0 = every switch).
	Switch uint32
	// Kind names the trunk/proc fault; channel windows use Profile.
	Kind    string
	Profile string
	Start   time.Time
	Until   time.Time
	// fired marks a one-shot window (reset/kill) as already applied.
	fired bool
}

func (w Window) activeAt(now time.Time) bool {
	if now.Before(w.Start) {
		return false
	}
	return w.Until.IsZero() || now.Before(w.Until)
}

// Validate checks the window's shape (selector existence is the deploy
// layer's concern — it knows the groups and switches).
func (w Window) Validate() error {
	switch w.Target {
	case TargetTrunk:
		switch w.Kind {
		case KindPartition, KindStall, KindReset, KindStarveBeats:
		default:
			return fmt.Errorf("faultinject: trunk window kind %q (want partition, stall, reset or starve-beats)", w.Kind)
		}
		if w.Group == "" {
			return fmt.Errorf("faultinject: trunk window needs a group")
		}
	case TargetChannel:
		if w.Profile == "" {
			return fmt.Errorf("faultinject: channel window needs a profile")
		}
		if w.Kind != "" {
			return fmt.Errorf("faultinject: channel window kind %q (channel windows use a profile)", w.Kind)
		}
	case TargetProc:
		if w.Kind != KindKill {
			return fmt.Errorf("faultinject: proc window kind %q (want kill)", w.Kind)
		}
		if w.Group == "" {
			return fmt.Errorf("faultinject: proc window needs a group")
		}
	default:
		return fmt.Errorf("faultinject: window target %q (want trunk, channel or proc)", w.Target)
	}
	return nil
}

// Action is a one-shot fault the deploy layer must apply (reset, kill).
type Action struct {
	Window Window
}

// Counters is the injector's cumulative perturbation tally.
type Counters struct {
	ChannelDropped    uint64
	ChannelDelayed    uint64
	ChannelDuplicated uint64
	// ChannelReordered counts frames handed to the link after a frame sent
	// later on the same link: rolled reorders and delay overtakes alike.
	ChannelReordered uint64
	TrunkDropped     uint64
	TrunkDelayed     uint64
	JoinsRefused     uint64
}

// Injector owns the fault state of one lab: declared profiles, scheduled
// and injected windows, and the seed every decision stream derives from.
// The zero Injector is not usable; construct with New.
type Injector struct {
	mu       sync.Mutex
	seed     int64
	nextID   uint64
	profiles map[string]Profile
	windows  []*Window
	counters Counters
	now      func() time.Time
}

// New builds an injector whose decision streams derive from seed.
func New(seed int64) *Injector {
	return &Injector{
		seed:     seed,
		nextID:   1,
		profiles: make(map[string]Profile),
		now:      time.Now,
	}
}

// Seed reports the injector's seed.
func (in *Injector) Seed() int64 { return in.seed }

// DefineProfile declares (or replaces) a named channel profile.
func (in *Injector) DefineProfile(p Profile) error {
	if p.Name == "" {
		return fmt.Errorf("faultinject: profile needs a name")
	}
	if err := p.validate(); err != nil {
		return err
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.profiles[p.Name] = p
	return nil
}

// Profiles lists the declared profiles, name-sorted.
func (in *Injector) Profiles() []Profile {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Profile, 0, len(in.profiles))
	for _, p := range in.profiles {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Schedule adds a window. Start/Until must already be absolute; the
// caller assigns spec offsets against its own base time. The window ID is
// returned for Clear.
func (in *Injector) Schedule(w Window) (uint64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if w.Target == TargetChannel {
		if _, ok := in.profiles[w.Profile]; !ok {
			return 0, fmt.Errorf("faultinject: channel window names unknown profile %q", w.Profile)
		}
	}
	if w.Start.IsZero() {
		w.Start = in.now()
	}
	w.ID = in.nextID
	in.nextID++
	in.windows = append(in.windows, &w)
	return w.ID, nil
}

// Clear removes one window, reporting whether it existed.
func (in *Injector) Clear(id uint64) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, w := range in.windows {
		if w.ID == id {
			in.windows = append(in.windows[:i], in.windows[i+1:]...)
			return true
		}
	}
	return false
}

// ClearAll removes every window, reporting how many were cleared.
func (in *Injector) ClearAll() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := len(in.windows)
	in.windows = nil
	return n
}

// Windows snapshots the window list (ID-sorted) and the current counters.
func (in *Injector) Windows() ([]Window, Counters) {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Window, 0, len(in.windows))
	for _, w := range in.windows {
		out = append(out, *w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, in.counters
}

// TakeActions returns the one-shot windows (reset, kill) that have opened
// and not yet been applied, marking them fired.
func (in *Injector) TakeActions() []Action {
	in.mu.Lock()
	defer in.mu.Unlock()
	now := in.now()
	var out []Action
	for _, w := range in.windows {
		if w.fired || !w.activeAt(now) {
			continue
		}
		if w.Kind == KindReset || w.Kind == KindKill {
			w.fired = true
			out = append(out, Action{Window: *w})
		}
	}
	return out
}

// TrunkPartitioned reports whether a partition window covers the group
// right now (joins must be refused retryably).
func (in *Injector) TrunkPartitioned(group string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	now := in.now()
	for _, w := range in.windows {
		if w.Target == TargetTrunk && w.Kind == KindPartition && w.Group == group && w.activeAt(now) {
			return true
		}
	}
	return false
}

// CountJoinRefused tallies a fault-refused join.
func (in *Injector) CountJoinRefused() {
	in.mu.Lock()
	in.counters.JoinsRefused++
	in.mu.Unlock()
}

// TrunkVerdict decides the fate of one trunk message for a group. beat
// marks child->controller liveness beats (the only messages a
// starve-beats window touches); inbound is true for child->controller
// traffic. A drop verdict discards the message; a positive delay stalls
// its processing.
func (in *Injector) TrunkVerdict(group string, inbound, beat bool) (drop bool, delay time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	now := in.now()
	for _, w := range in.windows {
		if w.Target != TargetTrunk || w.Group != group || !w.activeAt(now) {
			continue
		}
		switch w.Kind {
		case KindPartition:
			in.counters.TrunkDropped++
			return true, 0
		case KindStarveBeats:
			if inbound && beat {
				in.counters.TrunkDropped++
				return true, 0
			}
		case KindStall:
			d := stallDelay
			if p, ok := in.profiles[w.Profile]; ok && p.Latency > 0 {
				d = p.Latency
			}
			if d > delay {
				delay = d
			}
		}
	}
	if delay > 0 {
		in.counters.TrunkDelayed++
	}
	return false, delay
}

// channelProfile resolves the active channel profile for a switch (the
// first active window wins; 0-switch windows match every switch).
func (in *Injector) channelProfile(sw uint32) (Profile, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	now := in.now()
	for _, w := range in.windows {
		if w.Target != TargetChannel || !w.activeAt(now) {
			continue
		}
		if w.Switch != 0 && w.Switch != sw {
			continue
		}
		if p, ok := in.profiles[w.Profile]; ok {
			return p, true
		}
	}
	return Profile{}, false
}

func (in *Injector) count(c *uint64) {
	in.mu.Lock()
	*c++
	in.mu.Unlock()
}

// Decision is one message's fate under a channel profile.
type Decision struct {
	Drop      bool
	Duplicate bool
	Reorder   bool
	Delay     time.Duration
}

// DecisionStream is a deterministic per-link sequence of channel fault
// decisions: the same (seed, key) pair replays the same sequence against
// the same profile parameters. Not safe for concurrent use without the
// caller's lock.
type DecisionStream struct {
	rng *rand.Rand
}

// NewDecisionStream derives a stream from the injector seed and a stable
// link key (e.g. the attach peer address).
func NewDecisionStream(seed int64, key string) *DecisionStream {
	var h uint64 = 14695981039346656037 // FNV-1a offset basis
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &DecisionStream{rng: rand.New(rand.NewSource(seed ^ int64(h)))}
}

// Next draws one decision. Every call consumes a fixed number of random
// draws so the sequence stays aligned even as profiles change mid-run.
func (s *DecisionStream) Next(p Profile) Decision {
	var d Decision
	dropRoll := s.rng.Float64()
	dupRoll := s.rng.Float64()
	reorderRoll := s.rng.Float64()
	jitterRoll := s.rng.Float64()
	d.Drop = dropRoll < p.Drop
	d.Duplicate = dupRoll < p.Duplicate
	d.Reorder = reorderRoll < p.Reorder
	d.Delay = p.Latency
	if p.Jitter > 0 {
		d.Delay += time.Duration(jitterRoll * float64(p.Jitter))
	}
	return d
}
