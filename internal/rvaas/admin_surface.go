package rvaas

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/history"
	"repro/internal/topology"
	"repro/internal/verifier"
)

// This file is the operator-plane read surface over the controller: the
// per-shard engine snapshots, session grouping, verdict history and forced
// resync the internal/rvaas/admin service layers its HTTP API on. Read
// paths never take the engine's run lock — they use the per-shard mutexes
// and atomic counters only, so an operator paging through 10^5 standing
// invariants cannot stall a re-verification pass.

// ShardInfo is a point-in-time snapshot of one subscription-engine shard
// and its slice of the inverted footprint index.
type ShardInfo = verifier.ShardInfo

// ShardStats snapshots every engine shard. Each shard is locked briefly and
// independently; no global engine lock is taken, so the view across shards
// is not a single atomic cut — which is exactly the tradeoff an operator
// dashboard wants against a live engine.
func (c *Controller) ShardStats() []ShardInfo {
	return c.engine.ShardStats()
}

// ClientSessionInfo summarizes one client session: the envelope session its
// subscriptions were registered under (SessionID 0 groups in-process
// registrations).
type ClientSessionInfo struct {
	SessionID     uint64
	ClientID      uint64
	Subscriptions int
	Violated      int
}

// ClientSessions groups the standing invariants by (client, session),
// ordered by client then session. Built from per-shard snapshots only.
func (c *Controller) ClientSessions() []ClientSessionInfo {
	type key struct {
		client, session uint64
	}
	acc := make(map[key]*ClientSessionInfo)
	for _, st := range c.engine.List() {
		k := key{client: st.ClientID, session: st.SessionID}
		info := acc[k]
		if info == nil {
			info = &ClientSessionInfo{SessionID: st.SessionID, ClientID: st.ClientID}
			acc[k] = info
		}
		info.Subscriptions++
		if st.Violated {
			info.Violated++
		}
	}
	out := make([]ClientSessionInfo, 0, len(acc))
	for _, info := range acc {
		out = append(out, *info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ClientID != out[j].ClientID {
			return out[i].ClientID < out[j].ClientID
		}
		return out[i].SessionID < out[j].SessionID
	})
	return out
}

// Switch control-session states as reported by SwitchSessions.
const (
	// SwitchAttached: a live secure channel, snapshot in sync.
	SwitchAttached = "attached"
	// SwitchResyncing: attached, with a resync loop in flight on the
	// session (after an event gap, or ForceResync).
	SwitchResyncing = "resyncing"
	// SwitchDetached: the switch held a session that was lost (process
	// death, heartbeat silence); its snapshot state is wiped and standing
	// invariants over it report degraded verdicts until it re-attaches.
	SwitchDetached = "detached"
	// SwitchPending: the switch has never attached (bring-up still in
	// progress, or an external process that has not joined yet).
	SwitchPending = "pending"
)

// SwitchSessionInfo describes one topology switch's control session state.
type SwitchSessionInfo struct {
	Switch topology.SwitchID
	// PeerName is the authenticated certificate name of the switch end
	// ("" unless attached).
	PeerName string
	// State is one of the Switch* state constants above.
	State string
	// Resyncing reports a resync loop in flight on the switch's session.
	Resyncing bool
	// SelfRulesMissing counts RVaaS's interception rules the switch's
	// snapshot table lacks (0 unless attached): evidence that the provider
	// removed or altered them, so client envelopes no longer reach RVaaS.
	SelfRulesMissing int
}

// Attached reports whether the switch currently holds a live session.
func (s SwitchSessionInfo) Attached() bool {
	return s.State == SwitchAttached || s.State == SwitchResyncing
}

// SwitchSessions lists every topology switch's control-session state in
// switch order — attached sessions with their authenticated peer, plus the
// detached/pending remainder, so an operator sees losses instead of a
// silently shrinking list.
func (c *Controller) SwitchSessions() []SwitchSessionInfo {
	switches := c.topo.Switches()
	out := make([]SwitchSessionInfo, 0, len(switches))
	c.mu.Lock()
	for _, sw := range switches {
		info := SwitchSessionInfo{Switch: sw}
		if sess, ok := c.sessions[sw]; ok {
			info.PeerName = sess.conn.PeerName()
			info.Resyncing = sess.resyncing
			if info.Resyncing {
				info.State = SwitchResyncing
			} else {
				info.State = SwitchAttached
			}
		} else if c.wasAttached[sw] {
			info.State = SwitchDetached
		} else {
			info.State = SwitchPending
		}
		out = append(out, info)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Switch < out[j].Switch })
	for i := range out {
		if out[i].Attached() {
			out[i].SelfRulesMissing = c.selfRulesMissing(out[i].Switch)
		}
	}
	return out
}

// selfRulesMissing counts the interception rules with no equal entry in
// sw's snapshot table. Whole entries are compared, not the RVaaS cookie: a
// provider can put that cookie on a rule of its own.
func (c *Controller) selfRulesMissing(sw topology.SwitchID) int {
	table := c.snap.table(sw)
	missing := 0
	for _, fm := range c.interceptionRules() {
		if !slices.ContainsFunc(table, fm.Entry.Equal) {
			missing++
		}
	}
	return missing
}

// ForceResync error kinds, distinguishable so the admin layer can map a
// missing switch (404) apart from a known-but-detached one (409).
var (
	ErrUnknownSwitch = errors.New("switch is not in the topology")
	ErrNotAttached   = errors.New("switch is not attached")
)

// ForceResync re-bases one switch's snapshot on its authoritative state
// (operator-initiated): it runs the session's resync loop — the one an
// event gap runs — with each reply accepted even behind the snapshot. The
// resync runs asynchronously; a loop already running on the session is not
// duplicated. A restarted switch needs no ForceResync: it re-attaches, and
// every attach re-bases.
func (c *Controller) ForceResync(sw topology.SwitchID) error {
	if c.topo.PortCount(sw) == 0 {
		return fmt.Errorf("rvaas: switch %d: %w", sw, ErrUnknownSwitch)
	}
	c.mu.Lock()
	sess := c.sessions[sw]
	c.mu.Unlock()
	if sess == nil {
		return fmt.Errorf("rvaas: switch %d: %w", sw, ErrNotAttached)
	}
	c.resync(sess, true)
	return nil
}

// SubscriptionHistory returns the retained verdict transitions of one
// subscription in append order, and whether the subscription is currently
// registered (history outlives unsubscription until the ring evicts it).
func (c *Controller) SubscriptionHistory(id uint64) ([]history.Violation, bool) {
	_, live := c.engine.View(id)
	return c.vlog.PerSub(id), live
}
