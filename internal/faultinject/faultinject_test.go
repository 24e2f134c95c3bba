package faultinject

import (
	"testing"
	"time"

	"repro/internal/openflow"
)

// TestDecisionStreamDeterminism: the same (seed, key) replays the same
// drop/delay sequence; a different seed or key diverges.
func TestDecisionStreamDeterminism(t *testing.T) {
	p := Profile{Name: "x", Drop: 0.2, Duplicate: 0.1, Reorder: 0.1, Latency: 2 * time.Millisecond, Jitter: 3 * time.Millisecond}
	a := NewDecisionStream(7, "link-1")
	b := NewDecisionStream(7, "link-1")
	other := NewDecisionStream(8, "link-1")
	otherKey := NewDecisionStream(7, "link-2")
	sameSeed, diffSeed, diffKey := true, true, true
	for i := 0; i < 1000; i++ {
		da, db := a.Next(p), b.Next(p)
		if da != db {
			sameSeed = false
		}
		if da != other.Next(p) {
			diffSeed = false
		}
		if da != otherKey.Next(p) {
			diffKey = false
		}
	}
	if !sameSeed {
		t.Fatal("same seed and key diverged")
	}
	if diffSeed || diffKey {
		t.Fatal("different seed/key replayed identical sequences")
	}
}

// TestDecisionStreamAlignment: every Next consumes a fixed number of
// draws, so decisions stay aligned across mid-run profile changes.
func TestDecisionStreamAlignment(t *testing.T) {
	loss := Profile{Name: "l", Drop: 0.5}
	full := Profile{Name: "f", Drop: 0.5, Duplicate: 0.5, Reorder: 0.5, Latency: time.Millisecond, Jitter: time.Millisecond}
	a := NewDecisionStream(3, "k")
	b := NewDecisionStream(3, "k")
	for i := 0; i < 50; i++ {
		a.Next(loss)
		b.Next(full)
	}
	// Both streams consumed 50 decisions; from here they must agree.
	for i := 0; i < 50; i++ {
		if da, db := a.Next(full), b.Next(full); da != db {
			t.Fatalf("decision %d diverged after mixed profiles: %+v vs %+v", i, da, db)
		}
	}
}

// TestWindowValidation rejects malformed windows and probabilities.
func TestWindowValidation(t *testing.T) {
	in := New(1)
	if err := in.DefineProfile(Profile{Name: "bad", Drop: 1.5}); err == nil {
		t.Fatal("accepted drop probability > 1")
	}
	if err := in.DefineProfile(Profile{Name: "ok", Drop: 0.05}); err != nil {
		t.Fatal(err)
	}
	bad := []Window{
		{Target: "bogus"},
		{Target: TargetTrunk, Kind: "meltdown", Group: "g"},
		{Target: TargetTrunk, Kind: KindPartition},            // no group
		{Target: TargetChannel},                               // no profile
		{Target: TargetChannel, Profile: "ok", Kind: "stall"}, // kind on channel
		{Target: TargetProc, Kind: KindKill},                  // no group
		{Target: TargetProc, Kind: "stop", Group: "g"},
	}
	for i, w := range bad {
		if _, err := in.Schedule(w); err == nil {
			t.Errorf("window %d (%+v) accepted", i, w)
		}
	}
	if _, err := in.Schedule(Window{Target: TargetChannel, Profile: "missing"}); err == nil {
		t.Fatal("channel window with unknown profile accepted")
	}
	id, err := in.Schedule(Window{Target: TargetTrunk, Kind: KindPartition, Group: "g"})
	if err != nil {
		t.Fatal(err)
	}
	if !in.Clear(id) || in.Clear(id) {
		t.Fatal("clear bookkeeping wrong")
	}
}

// TestTrunkVerdicts: partition drops everything, starve-beats drops only
// inbound beats, stall delays, and spans bound the effect.
func TestTrunkVerdicts(t *testing.T) {
	in := New(1)
	base := time.Now()
	now := base
	in.now = func() time.Time { return now }

	if _, err := in.Schedule(Window{
		Target: TargetTrunk, Kind: KindPartition, Group: "right",
		Start: base.Add(10 * time.Millisecond), Until: base.Add(20 * time.Millisecond),
	}); err != nil {
		t.Fatal(err)
	}
	if drop, _ := in.TrunkVerdict("right", true, false); drop {
		t.Fatal("dropped before the window opened")
	}
	now = base.Add(15 * time.Millisecond)
	if drop, _ := in.TrunkVerdict("right", true, false); !drop {
		t.Fatal("partition window did not drop")
	}
	if drop, _ := in.TrunkVerdict("left", true, false); drop {
		t.Fatal("partition leaked onto another group")
	}
	if !in.TrunkPartitioned("right") || in.TrunkPartitioned("left") {
		t.Fatal("TrunkPartitioned selector wrong")
	}
	now = base.Add(25 * time.Millisecond)
	if drop, _ := in.TrunkVerdict("right", true, false); drop {
		t.Fatal("dropped after the window closed")
	}

	if _, err := in.Schedule(Window{Target: TargetTrunk, Kind: KindStarveBeats, Group: "right", Start: now}); err != nil {
		t.Fatal(err)
	}
	if drop, _ := in.TrunkVerdict("right", true, true); !drop {
		t.Fatal("starve-beats did not drop an inbound beat")
	}
	if drop, _ := in.TrunkVerdict("right", true, false); drop {
		t.Fatal("starve-beats dropped a data message")
	}
	if drop, _ := in.TrunkVerdict("right", false, true); drop {
		t.Fatal("starve-beats dropped an outbound message")
	}

	in.ClearAll()
	if _, err := in.Schedule(Window{Target: TargetTrunk, Kind: KindStall, Group: "right", Start: now}); err != nil {
		t.Fatal(err)
	}
	if drop, delay := in.TrunkVerdict("right", true, false); drop || delay <= 0 {
		t.Fatalf("stall verdict = (%v, %s)", drop, delay)
	}
}

// TestOneShotActions: reset/kill windows fire exactly once.
func TestOneShotActions(t *testing.T) {
	in := New(1)
	if _, err := in.Schedule(Window{Target: TargetTrunk, Kind: KindReset, Group: "g"}); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Schedule(Window{Target: TargetProc, Kind: KindKill, Group: "g"}); err != nil {
		t.Fatal(err)
	}
	acts := in.TakeActions()
	if len(acts) != 2 {
		t.Fatalf("actions = %d, want 2", len(acts))
	}
	if acts = in.TakeActions(); len(acts) != 0 {
		t.Fatalf("one-shot actions fired twice: %+v", acts)
	}
}

// recvOne receives one message with a test-side timeout (UDPTransport has
// no deadline API; a lingering Recv goroutine unwinds when the pipe
// closes).
func recvOne(tr openflow.Transport, d time.Duration) ([]byte, bool) {
	type res struct {
		b   []byte
		err error
	}
	ch := make(chan res, 1)
	go func() {
		b, err := tr.Recv()
		ch <- res{b, err}
	}()
	select {
	case r := <-ch:
		return r.b, r.err == nil
	case <-time.After(d):
		return nil, false
	}
}

// TestChannelTransportDeterminism: identically seeded injectors drop the
// same messages out of the same sequence, run over run.
func TestChannelTransportDeterminism(t *testing.T) {
	run := func(seed int64) uint64 {
		in := New(seed)
		if err := in.DefineProfile(Profile{Name: "lossy", Drop: 0.3}); err != nil {
			t.Fatal(err)
		}
		if _, err := in.Schedule(Window{Target: TargetChannel, Profile: "lossy"}); err != nil {
			t.Fatal(err)
		}
		a, b, err := openflow.UDPPipe()
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		defer b.Close()
		ft := in.WrapChannel("link", a)
		for i := 0; i < 200; i++ {
			if err := ft.Send([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		_, c := in.Windows()
		return c.ChannelDropped
	}
	c1 := run(11)
	c2 := run(11)
	if c1 != c2 {
		t.Fatalf("same seed dropped %d vs %d", c1, c2)
	}
	if c1 == 0 {
		t.Fatal("30% loss dropped nothing in 200 sends")
	}
	if c3 := run(12); c3 == c1 {
		// One-in-many chance collision would make this flaky if exact;
		// drop counts from a different seed landing identical is fine,
		// but the per-message pattern must differ — spot-check streams.
		p := Profile{Drop: 0.3}
		s1, s2 := NewDecisionStream(11, "link/send"), NewDecisionStream(12, "link/send")
		same := true
		for i := 0; i < 200; i++ {
			if s1.Next(p) != s2.Next(p) {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds replayed the same drop pattern")
		}
	}
}

// TestChannelTransportInactive: with no active window the wrapper is a
// pass-through.
func TestChannelTransportInactive(t *testing.T) {
	in := New(1)
	a, b, err := openflow.UDPPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	ft := in.WrapChannel("link", a)
	if !ft.Lossy() {
		t.Fatal("fault wrapper must report lossy")
	}
	for i := 0; i < 20; i++ {
		if err := ft.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		got, ok := recvOne(b, 2*time.Second)
		if !ok || len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("message %d = %v (ok=%v)", i, got, ok)
		}
	}
	_, c := in.Windows()
	if c.ChannelDropped != 0 || c.ChannelDelayed != 0 {
		t.Fatalf("inactive wrapper counted faults: %+v", c)
	}
}

// TestChannelTransportSwitchSelector: a window scoped to one switch
// leaves other switches' links untouched.
func TestChannelTransportSwitchSelector(t *testing.T) {
	in := New(5)
	if err := in.DefineProfile(Profile{Name: "dead", Drop: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Schedule(Window{Target: TargetChannel, Profile: "dead", Switch: 3}); err != nil {
		t.Fatal(err)
	}
	a, b, err := openflow.UDPPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	ft := in.WrapChannel("link", a)
	ft.SetSwitch(4)
	if err := ft.Send([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(b, 2*time.Second); !ok {
		t.Fatal("switch 4 message lost under a switch-3 window")
	}
	ft.SetSwitch(3)
	_ = ft.Send([]byte("gone"))
	if _, ok := recvOne(b, 100*time.Millisecond); ok {
		t.Fatal("switch 3 message survived a 100% drop window")
	}
}

// TestChannelReorderCounted: every frame the injector hands to the link
// behind a later-sent one is counted, whether a rolled reorder held it back
// or a shorter delay let a later frame overtake it.
func TestChannelReorderCounted(t *testing.T) {
	run := func(p Profile) (observed int, counted uint64) {
		in := New(3)
		if err := in.DefineProfile(p); err != nil {
			t.Fatal(err)
		}
		if _, err := in.Schedule(Window{Target: TargetChannel, Profile: p.Name}); err != nil {
			t.Fatal(err)
		}
		a, b := openflow.Pipe()
		defer a.Close()
		defer b.Close()
		ft := in.WrapChannel("link", a)
		const frames = 200
		for i := 0; i < frames; i++ {
			if err := ft.Send([]byte{byte(i >> 8), byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		high := -1
		for {
			got, ok := recvOne(b, 200*time.Millisecond)
			if !ok {
				break
			}
			if i := int(got[0])<<8 | int(got[1]); i < high {
				observed++
			} else {
				high = i
			}
		}
		_, c := in.Windows()
		return observed, c.ChannelReordered
	}
	// Rolled reorders deliver on the sender's goroutine: the count is exact.
	if observed, counted := run(Profile{Name: "reorder", Reorder: 0.3}); observed == 0 || counted != uint64(observed) {
		t.Fatalf("rolled reorders: %d frames arrived behind a later one, %d counted", observed, counted)
	}
	// One timer per delayed frame: jitter lets later frames overtake.
	if observed, counted := run(Profile{Name: "jitter", Latency: time.Millisecond, Jitter: 5 * time.Millisecond}); observed == 0 || counted == 0 {
		t.Fatalf("delay overtakes: %d frames arrived behind a later one, %d counted", observed, counted)
	}
}
