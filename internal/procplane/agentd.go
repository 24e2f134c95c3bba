package procplane

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/client"
	"repro/internal/enclave"
	"repro/internal/labspec"
	"repro/internal/topology"
	"repro/internal/wire"
)

// trunkNIC is an agent's network attachment in a placed process: frame
// injection rides the trunk to the controller, which routes it into the
// fabric that owns the access switch. The pointer indirection survives
// rejoins — while the trunk is down, sends fail loudly (degraded) instead
// of writing into a dead socket.
type trunkNIC struct {
	tc *atomic.Pointer[Conn]
}

func (n trunkNIC) InjectFromHost(ep topology.Endpoint, pkt *wire.Packet) error {
	c := n.tc.Load()
	if c == nil {
		return fmt.Errorf("procplane: trunk down; dropped inject at %s", ep)
	}
	return c.Write(MsgFrameInject, EncodeFrame(ep, pkt))
}

// agentdState is what survives a trunk loss: the agents with their
// identity keys and standing subscriptions, the endpoint handler table,
// and which spec invariants have already been subscribed (a rejoin
// re-registers the same keys — idempotent on the controller — and only
// finishes subscribe bring-up it hadn't completed).
type agentdState struct {
	m    *Manifest
	logf Logf

	tc         atomic.Pointer[Conn]
	spec       *labspec.Spec
	agents     map[uint64]*client.Agent
	handlers   map[topology.Endpoint]func(*wire.Packet)
	subscribed map[int]bool
	beat       time.Duration
}

// RunAgentd joins the lab described by the manifest and hosts its group of
// client agents until ctx is cancelled or the rejoin policy gives up. The
// join ack carries the trust anchors a real client would obtain out of band
// (enclave platform root, expected RVaaS measurement, attested server key);
// agent identity keys are generated here and only their public halves are
// registered with the controller. The child then registers the spec's
// standing invariants for its own clients over the real in-band subscribe
// path — the controller registers only in-process clients' invariants. A
// lost trunk is not terminal: the agents and their subscriptions stay
// alive while the child rejoins under backoff and re-registers the same
// keys, and the clients' own resync path recovers any verdicts missed
// during the outage.
func RunAgentd(ctx context.Context, m *Manifest, logf Logf) error {
	if logf == nil {
		logf = nopLog
	}
	if err := m.Validate(); err != nil {
		return err
	}
	if m.Kind != KindAgentd {
		return fmt.Errorf("procplane: RunAgentd on a %q manifest", m.Kind)
	}
	st := &agentdState{m: m, logf: logf, beat: BeatInterval, subscribed: make(map[int]bool)}
	defer func() {
		for _, ag := range st.agents {
			ag.Close()
		}
	}()
	return runRejoin(ctx, m, logf, KindAgentd, st.session)
}

// session runs one trunk attachment from dial to loss.
func (st *agentdState) session(ctx context.Context) (joined bool, err error) {
	m := st.m
	tc, ack, err := dialTrunk(ctx, m, &JoinRequest{
		Lab: m.Lab, Group: m.Group, Token: m.Token,
		Kind: KindAgentd, Agents: m.Agents,
	})
	if err != nil {
		return false, err
	}
	defer tc.Close()
	stopWatch, cancelled := watchCtx(ctx, tc)
	defer stopWatch()

	if st.agents == nil {
		spec, topo, err := buildLab(ack)
		if err != nil {
			return true, err
		}
		if len(ack.Measurement) != len(enclave.Measurement{}) {
			return true, fmt.Errorf("procplane: join ack measurement is %d bytes, want %d", len(ack.Measurement), len(enclave.Measurement{}))
		}
		trust := client.TrustAnchors{PlatformRoot: ed25519.PublicKey(ack.PlatformRoot)}
		copy(trust.Measurement[:], ack.Measurement)

		mine := make(map[uint64]bool, len(m.Agents))
		for _, id := range m.Agents {
			mine[id] = true
		}
		agents := make(map[uint64]*client.Agent)
		handlers := make(map[topology.Endpoint]func(*wire.Packet))
		for _, ap := range topo.AccessPoints() {
			if !mine[ap.ClientID] {
				continue
			}
			ag, exists := agents[ap.ClientID]
			if !exists {
				ag, err = client.New(client.Config{
					ClientID:        ap.ClientID,
					Access:          ap,
					NIC:             trunkNIC{&st.tc},
					Trust:           trust,
					ResponseTimeout: spec.Agents.ResponseTimeout.Std(),
				})
				if err != nil {
					return true, err
				}
				ag.PinServerKey(ed25519.PublicKey(ack.ServerKey))
				agents[ap.ClientID] = ag
			}
			handlers[ap.Endpoint] = ag.HandlerFor(ap)
		}
		for id := range mine {
			if agents[id] == nil {
				return true, fmt.Errorf("procplane: client %d has no access point in the acked topology", id)
			}
		}
		st.spec, st.agents, st.handlers = spec, agents, handlers
		st.beat = spec.Placement.EffectiveBeatInterval()
	}
	st.tc.Store(tc)
	defer st.tc.Store(nil)

	// deliver routes a trunk host delivery to the owning agent's NIC.
	deliver := func(payload []byte) {
		ep, pkt, err := DecodeFrame(payload)
		if err != nil {
			st.logf("agentd %s: %v", m.Group, err)
			return
		}
		h := st.handlers[ep]
		if h == nil {
			st.logf("agentd %s: host delivery for unhosted endpoint %s", m.Group, ep)
			return
		}
		h(pkt)
	}

	// Register the agents' verification keys; frames may already interleave
	// on the trunk while the ack is in flight. A rejoin re-registers the
	// same keys, which the controller treats as a no-op.
	reg := Register{Keys: make(map[uint64][]byte, len(st.agents))}
	for id, ag := range st.agents {
		reg.Keys[id] = ag.PublicKey()
	}
	if err := tc.WriteJSON(MsgRegister, &reg); err != nil {
		return true, retryable(err)
	}
	deadline := time.Now().Add(joinWait)
	for acked := false; !acked; {
		tc.SetReadDeadline(deadline)
		typ, payload, err := tc.Read()
		if err != nil {
			if cancelled() {
				return true, nil
			}
			return true, retryable(fmt.Errorf("procplane: waiting for register ack: %w", err))
		}
		switch typ {
		case MsgRegisterAck:
			var rack RegisterAck
			if err := decodeJSON(payload, &rack); err != nil {
				return true, err
			}
			if rack.Error != "" {
				return true, fmt.Errorf("procplane: register refused: %s", rack.Error)
			}
			acked = true
		case MsgFrameHost:
			deliver(payload)
		case MsgBeat:
		default:
			st.logf("agentd %s: unexpected trunk message type %d before register ack", m.Group, typ)
		}
	}
	tc.SetReadDeadline(time.Time{})
	st.logf("agentd %s: joined lab %q hosting clients %v", m.Group, m.Lab, m.Agents)

	beatStop := make(chan struct{})
	defer close(beatStop)
	go beatLoop(tc, st.beat, beatStop)

	// The read loop must run before any agent request: responses come back
	// as trunk host deliveries.
	readErr := make(chan error, 1)
	go func() {
		for {
			typ, payload, err := tc.Read()
			if err != nil {
				if cancelled() {
					readErr <- nil
				} else {
					readErr <- retryable(fmt.Errorf("procplane: trunk closed: %w", err))
				}
				return
			}
			switch typ {
			case MsgFrameHost:
				deliver(payload)
			case MsgBeat:
			default:
				st.logf("agentd %s: unexpected trunk message type %d", m.Group, typ)
			}
		}
	}()

	// Standing invariants for this group's clients, over the real in-band
	// path (frame inject -> trunk -> fabric -> RVaaS and back). Bring-up
	// races are expected — this process may join before the switch hosting
	// the client's access point has attached, or before the controller
	// started — so failed subscribes retry under backoff until the join
	// window closes. Subscriptions that landed in a previous session are
	// skipped: the controller kept them.
	sub := backoff.New(backoff.Policy{Initial: 100 * time.Millisecond, Max: time.Second})
	subDeadline := time.Now().Add(joinWait)
	for i, inv := range st.spec.Invariants {
		if st.subscribed[i] {
			continue
		}
		ag := st.agents[inv.Client]
		if ag == nil {
			continue
		}
		kind, err := inv.WireKind()
		if err != nil {
			return true, err
		}
		constraints, err := inv.WireConstraints()
		if err != nil {
			return true, err
		}
		for {
			_, err := ag.Subscribe(kind, constraints, inv.Param)
			if err == nil {
				st.subscribed[i] = true
				sub.Reset()
				break
			}
			if time.Now().After(subDeadline) {
				return true, fmt.Errorf("procplane: register %s invariant for client %d: %w", inv.Kind, inv.Client, err)
			}
			st.logf("agentd %s: subscribe %s for client %d: %v (retrying)", m.Group, inv.Kind, inv.Client, err)
			t := time.NewTimer(sub.Next())
			select {
			case <-t.C:
			case err := <-readErr:
				t.Stop()
				return true, err
			}
			t.Stop()
		}
	}
	return true, <-readErr
}
