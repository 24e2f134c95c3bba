package faultinject

import (
	"sync"
	"time"

	"repro/internal/openflow"
)

// timeoutRecver mirrors openflow's unexported deadlineRecver so the
// wrapper can delegate bounded receives (heartbeat probes, handshakes).
type timeoutRecver interface {
	RecvTimeout(d time.Duration) ([]byte, error)
}

// ChannelTransport wraps an openflow.Transport with the injector's active
// channel profile: per-message drop on both directions, and latency /
// duplication / reordering on sends. With no active window it forwards
// untouched. The wrapper always reports Lossy — a faulted channel is
// best-effort by construction, whatever the substrate.
//
// Each delayed frame gets its own timer, so frames may overtake each other
// even without a rolled reorder. The secure channel's replay window takes
// a late frame within its 64-counter window and drops a duplicate or an
// older one: to the session, misordering is at worst loss.
type ChannelTransport struct {
	inner openflow.Transport
	inj   *Injector

	mu   sync.Mutex
	send *DecisionStream
	recv *DecisionStream
	sw   uint32
	held frame // reorder hold-back: sent after the next message
	// lastSeq stamps frames in send order; maxOut is the highest stamp
	// handed to the inner transport so far.
	lastSeq, maxOut uint64
}

// frame is one message stamped with its per-link send sequence.
type frame struct {
	data []byte
	seq  uint64
}

// WrapChannel wraps one attach-path transport. key must be stable for the
// link (e.g. the peer address) so the decision streams are deterministic
// per (seed, link).
func (in *Injector) WrapChannel(key string, inner openflow.Transport) *ChannelTransport {
	return &ChannelTransport{
		inner: inner,
		inj:   in,
		send:  NewDecisionStream(in.seed, key+"/send"),
		recv:  NewDecisionStream(in.seed, key+"/recv"),
	}
}

// SetSwitch records the authenticated switch behind this link so windows
// with a switch selector apply (before identification only 0-selector
// windows match).
func (t *ChannelTransport) SetSwitch(sw uint32) {
	t.mu.Lock()
	t.sw = sw
	t.mu.Unlock()
}

// Lossy marks the channel best-effort.
func (t *ChannelTransport) Lossy() bool { return true }

// sendDecision stamps one message and rolls its send-side fate. cur is the
// message to send now (empty when a reorder holds it back) and flush the
// previously held message to send after it, if any.
func (t *ChannelTransport) sendDecision(data []byte) (d Decision, cur, flush frame, active bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastSeq++
	cur = frame{data: data, seq: t.lastSeq}
	p, ok := t.inj.channelProfile(t.sw)
	if !ok {
		flush, t.held = t.held, frame{}
		return Decision{}, cur, flush, false
	}
	d = t.send.Next(p)
	if d.Drop {
		t.inj.count(&t.inj.counters.ChannelDropped)
		return d, frame{}, frame{}, true
	}
	if d.Duplicate {
		t.inj.count(&t.inj.counters.ChannelDuplicated)
	}
	if d.Delay > 0 {
		t.inj.count(&t.inj.counters.ChannelDelayed)
	}
	flush, t.held = t.held, frame{}
	if d.Reorder {
		cur, t.held = frame{}, cur
	}
	return d, cur, flush, true
}

// out hands one frame to the inner transport, blocking unless try is set.
// A frame handed over after a later-sent one counts as reordered.
func (t *ChannelTransport) out(f frame, try bool) (bool, error) {
	t.mu.Lock()
	if f.seq < t.maxOut {
		t.inj.count(&t.inj.counters.ChannelReordered)
	} else {
		t.maxOut = f.seq
	}
	t.mu.Unlock()
	if try {
		return t.inner.TrySend(f.data)
	}
	return true, t.inner.Send(f.data)
}

// deliver sends one frame now or after the decision's delay.
func (t *ChannelTransport) deliver(f frame, delay time.Duration) error {
	if delay <= 0 {
		_, err := t.out(f, false)
		return err
	}
	time.AfterFunc(delay, func() { _, _ = t.out(f, false) })
	return nil
}

// Send applies the active profile and forwards.
func (t *ChannelTransport) Send(data []byte) error {
	d, cur, flush, active := t.sendDecision(data)
	if !active {
		if flush.data != nil {
			_, _ = t.out(flush, false)
		}
		_, err := t.out(cur, false)
		return err
	}
	if d.Drop {
		return nil // the network ate it
	}
	if d.Reorder {
		// data is held; flush is the previously held message (may be empty).
		if flush.data != nil {
			return t.deliver(flush, d.Delay)
		}
		return nil
	}
	if err := t.deliver(cur, d.Delay); err != nil {
		return err
	}
	if d.Duplicate {
		_ = t.deliver(cur, d.Delay)
	}
	if flush.data != nil {
		return t.deliver(flush, d.Delay)
	}
	return nil
}

// TrySend applies the same perturbations without blocking; a dropped
// message reports sent (the caller cannot tell loss from delivery).
func (t *ChannelTransport) TrySend(data []byte) (bool, error) {
	d, cur, flush, active := t.sendDecision(data)
	if !active {
		if flush.data != nil {
			_, _ = t.out(flush, true)
		}
		return t.out(cur, true)
	}
	if d.Drop {
		return true, nil
	}
	if d.Reorder {
		if flush.data != nil {
			_ = t.deliver(flush, d.Delay)
		}
		return true, nil
	}
	if d.Delay > 0 {
		_ = t.deliver(cur, d.Delay)
		if d.Duplicate {
			_ = t.deliver(cur, d.Delay)
		}
		if flush.data != nil {
			_ = t.deliver(flush, d.Delay)
		}
		return true, nil
	}
	sent, err := t.out(cur, true)
	if sent && d.Duplicate {
		_, _ = t.out(cur, true)
	}
	if flush.data != nil {
		_, _ = t.out(flush, true)
	}
	return sent, err
}

// recvDrop rolls the receive-side fate of one message.
func (t *ChannelTransport) recvDrop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.inj.channelProfile(t.sw)
	if !ok {
		return false
	}
	if t.recv.Next(p).Drop {
		t.inj.count(&t.inj.counters.ChannelDropped)
		return true
	}
	return false
}

// Recv forwards the next message that survives the receive-side drop roll.
func (t *ChannelTransport) Recv() ([]byte, error) {
	for {
		data, err := t.inner.Recv()
		if err != nil {
			return nil, err
		}
		if t.recvDrop() {
			continue
		}
		return data, nil
	}
}

// RecvTimeout bounds Recv when the wrapped transport supports deadlines
// (the UDP mux path always does); dropped messages consume the deadline.
func (t *ChannelTransport) RecvTimeout(d time.Duration) ([]byte, error) {
	tr, ok := t.inner.(timeoutRecver)
	if !ok {
		return t.Recv()
	}
	deadline := time.Now().Add(d)
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			remain = time.Nanosecond
		}
		data, err := tr.RecvTimeout(remain)
		if err != nil {
			return nil, err
		}
		if t.recvDrop() {
			continue
		}
		return data, nil
	}
}

// Close tears the wrapped transport down.
func (t *ChannelTransport) Close() {
	t.mu.Lock()
	t.held = frame{}
	t.mu.Unlock()
	t.inner.Close()
}
