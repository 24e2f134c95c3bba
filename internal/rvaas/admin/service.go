// Package admin is the operator-plane ops API over a running RVaaS
// controller, layered handler → service: Service exposes typed operations
// (list/filter/paginate subscriptions, per-shard engine stats, verdict
// history, forced resync, session listing, an overview), and Handler
// (http.go) maps them onto a local HTTP endpoint. `rvaasd` mounts the
// handler; `rvaasd ops` is the CLI client.
//
// Every read goes through the controller's lock-free admin surface
// (per-shard snapshots and atomic counters) so operating the service never
// contends with the verification engine's re-check passes.
package admin

import (
	"errors"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/rvaas"
	"repro/internal/topology"
	"repro/internal/wire"
)

// APIVersion is the admin API contract version, reported by /v1/version and
// the X-RVaaS-Api-Version header on every response.
const APIVersion = "1"

// Service is the operator-plane service layer.
type Service struct {
	ctl *rvaas.Controller
	// procs reports per-process health of a multi-process lab (nil for a
	// single-process deployment).
	procs func() []ProcHealth
	// faults is the fault-plane controller of a multi-process lab (nil
	// for a single-process deployment).
	faults FaultController
	// campaign reports live adversarial-campaign progress (nil when no
	// campaign engine is attached).
	campaign func() CampaignView
}

// NewService wraps a running controller.
func NewService(ctl *rvaas.Controller) *Service { return &Service{ctl: ctl} }

// WithProcs attaches a per-process health source (a multi-process lab's
// supervisor). Returns the service for chaining.
func (s *Service) WithProcs(fn func() []ProcHealth) *Service {
	s.procs = fn
	return s
}

// Subscription status filter values.
const (
	StatusAny      = ""
	StatusViolated = "violated"
	StatusOK       = "ok"
)

// SubFilter restricts a subscription listing. Zero values mean "any".
type SubFilter struct {
	// Status is "", "violated" or "ok".
	Status string
	// Client restricts to one client ID (0 = any).
	Client uint64
	// Kind restricts to one invariant kind by wire name ("" = any).
	Kind string
	// Session restricts to one session ID; meaningful only with HasSession
	// (session 0 is the in-process group).
	Session    uint64
	HasSession bool
}

func (f SubFilter) validate() error {
	switch f.Status {
	case StatusAny, StatusViolated, StatusOK:
		return nil
	}
	return badRequest("unknown status filter %q (want %q or %q)", f.Status, StatusViolated, StatusOK)
}

func (f SubFilter) match(s rvaas.SubscriptionInfo) bool {
	if f.Status == StatusViolated && !s.Violated {
		return false
	}
	if f.Status == StatusOK && s.Violated {
		return false
	}
	if f.Client != 0 && s.ClientID != f.Client {
		return false
	}
	if f.Kind != "" && s.Kind.String() != f.Kind {
		return false
	}
	if f.HasSession && s.SessionID != f.Session {
		return false
	}
	return true
}

// SubView is the JSON shape of one standing invariant.
type SubView struct {
	ID            uint64 `json:"id"`
	Client        uint64 `json:"client"`
	Session       uint64 `json:"session"`
	Kind          string `json:"kind"`
	Param         string `json:"param,omitempty"`
	Status        string `json:"status"`
	Detail        string `json:"detail,omitempty"`
	Seq           uint64 `json:"seq"`
	FootprintSize int    `json:"footprintSize"`
}

func subView(s rvaas.SubscriptionInfo) SubView {
	status := StatusOK
	if s.Violated {
		status = StatusViolated
	}
	return SubView{
		ID: s.ID, Client: s.ClientID, Session: s.SessionID,
		Kind: s.Kind.String(), Param: s.Param,
		Status: status, Detail: s.Detail, Seq: s.Seq,
		FootprintSize: s.FootprintSize,
	}
}

// SubPage is one page of a filtered subscription listing, keyed by ID:
// request the next page with cursor = NextCursor until NextCursor is 0.
type SubPage struct {
	Subs []SubView `json:"subs"`
	// Total is the number of subscriptions matching the filter (all pages).
	Total int `json:"total"`
	// NextCursor resumes the listing on the next page (0 = exhausted).
	NextCursor uint64 `json:"nextCursor"`
}

// DefaultPageSize bounds listings when the caller does not choose one.
const DefaultPageSize = 100

// ListSubscriptions returns the page of filtered subscriptions with ID >
// cursor, in ID order, at most limit entries (0 = DefaultPageSize).
func (s *Service) ListSubscriptions(f SubFilter, cursor uint64, limit int) (SubPage, error) {
	if err := f.validate(); err != nil {
		return SubPage{}, err
	}
	if limit <= 0 {
		limit = DefaultPageSize
	}
	page := SubPage{Subs: []SubView{}}
	for _, sub := range s.ctl.Subscriptions() {
		if !f.match(sub) {
			continue
		}
		page.Total++
		if sub.ID <= cursor {
			continue
		}
		if len(page.Subs) < limit {
			page.Subs = append(page.Subs, subView(sub))
		} else if page.NextCursor == 0 {
			page.NextCursor = page.Subs[len(page.Subs)-1].ID
		}
	}
	return page, nil
}

// ShardView is the JSON shape of one engine shard snapshot. IndexEntries
// counts traversal-at-switch entries, IndexClasses the classes they are
// grouped into (one overlap test each when their switch is dispatched).
type ShardView struct {
	Shard        int `json:"shard"`
	Active       int `json:"active"`
	Violated     int `json:"violated"`
	IndexBuckets int `json:"indexBuckets"`
	IndexClasses int `json:"indexClasses"`
	IndexEntries int `json:"indexEntries"`
}

// ShardStats snapshots the 32 engine shards.
func (s *Service) ShardStats() []ShardView {
	infos := s.ctl.ShardStats()
	out := make([]ShardView, len(infos))
	for i, in := range infos {
		out[i] = ShardView{
			Shard: in.Shard, Active: in.Active, Violated: in.Violated,
			IndexBuckets: in.IndexBuckets, IndexClasses: in.IndexClasses, IndexEntries: in.IndexEntries,
		}
	}
	return out
}

// VerdictView is one verdict transition of a subscription.
type VerdictView struct {
	At         time.Time `json:"at"`
	Event      string    `json:"event"`
	Client     uint64    `json:"client"`
	Kind       string    `json:"kind"`
	Detail     string    `json:"detail,omitempty"`
	SnapshotID uint64    `json:"snapshotId"`
}

// HistoryView is one page of the verdict history of one subscription,
// oldest first. Request the next page with cursor = NextCursor until
// NextCursor is 0 (the cursor is a position in the retained ring).
type HistoryView struct {
	SubID uint64 `json:"subId"`
	// Live reports whether the subscription is currently registered.
	Live     bool          `json:"live"`
	Verdicts []VerdictView `json:"verdicts"`
	// Total is the number of retained transitions (all pages).
	Total int `json:"total"`
	// NextCursor resumes the listing on the next page (0 = exhausted).
	NextCursor uint64 `json:"nextCursor"`
}

// VerdictHistory returns one page of the retained verdict transitions of a
// subscription, skipping cursor entries, at most limit per page (0 = all).
// An ID with no live registration and no history is a not_found error.
func (s *Service) VerdictHistory(subID, cursor uint64, limit int) (HistoryView, error) {
	records, live := s.ctl.SubscriptionHistory(subID)
	if !live && len(records) == 0 {
		return HistoryView{}, notFound("subscription %d: not registered and no retained history", subID)
	}
	view := HistoryView{SubID: subID, Live: live, Total: len(records), Verdicts: []VerdictView{}}
	if cursor > uint64(len(records)) {
		cursor = uint64(len(records))
	}
	records = records[cursor:]
	if limit > 0 && len(records) > limit {
		records = records[:limit]
		view.NextCursor = cursor + uint64(limit)
	}
	for _, r := range records {
		view.Verdicts = append(view.Verdicts, VerdictView{
			At: r.At, Event: r.Event.String(), Client: r.ClientID,
			Kind: r.Kind, Detail: r.Detail, SnapshotID: r.SnapshotID,
		})
	}
	return view, nil
}

// ForceResync triggers an authoritative re-sync of one switch's snapshot.
// An unknown switch is a not_found error; a known but currently detached
// switch is a conflict (the session must reattach first).
func (s *Service) ForceResync(sw uint32) error {
	err := s.ctl.ForceResync(topology.SwitchID(sw))
	switch {
	case err == nil:
		return nil
	case errors.Is(err, rvaas.ErrUnknownSwitch):
		return notFound("%v", err)
	case errors.Is(err, rvaas.ErrNotAttached):
		return conflict("%v", err)
	default:
		return err
	}
}

// SessionsView lists client sessions (one page) and switch sessions (all —
// bounded by topology size). Request the next client page with cursor =
// NextCursor until NextCursor is 0 (the cursor is a position in the
// client-ordered listing).
type SessionsView struct {
	Clients  []ClientSessionView `json:"clients"`
	Switches []SwitchSessionView `json:"switches"`
	// TotalClients is the number of client sessions (all pages).
	TotalClients int `json:"totalClients"`
	// NextCursor resumes the client listing on the next page (0 = exhausted).
	NextCursor uint64 `json:"nextCursor"`
}

// ClientSessionView is one client session group.
type ClientSessionView struct {
	Session       uint64 `json:"session"`
	Client        uint64 `json:"client"`
	Subscriptions int    `json:"subscriptions"`
	Violated      int    `json:"violated"`
}

// SwitchSessionView is one topology switch's control-channel state:
// attached / resyncing / detached / pending.
type SwitchSessionView struct {
	Switch           uint32 `json:"switch"`
	PeerName         string `json:"peerName,omitempty"`
	State            string `json:"state"`
	Resyncing        bool   `json:"resyncing"`
	SelfRulesMissing int    `json:"selfRulesMissing"`
}

// Sessions lists client session groups (paginated: skip cursor entries, at
// most limit per page, 0 = all) and switch control sessions.
func (s *Service) Sessions(cursor uint64, limit int) SessionsView {
	view := SessionsView{Clients: []ClientSessionView{}, Switches: []SwitchSessionView{}}
	clients := s.ctl.ClientSessions()
	view.TotalClients = len(clients)
	if cursor > uint64(len(clients)) {
		cursor = uint64(len(clients))
	}
	clients = clients[cursor:]
	if limit > 0 && len(clients) > limit {
		clients = clients[:limit]
		view.NextCursor = cursor + uint64(limit)
	}
	for _, cs := range clients {
		view.Clients = append(view.Clients, ClientSessionView{
			Session: cs.SessionID, Client: cs.ClientID,
			Subscriptions: cs.Subscriptions, Violated: cs.Violated,
		})
	}
	for _, ss := range s.ctl.SwitchSessions() {
		view.Switches = append(view.Switches, SwitchSessionView{
			Switch: uint32(ss.Switch), PeerName: ss.PeerName,
			State: ss.State, Resyncing: ss.Resyncing, SelfRulesMissing: ss.SelfRulesMissing,
		})
	}
	return view
}

// VersionView reports the admin API contract version and build provenance.
type VersionView struct {
	APIVersion string `json:"apiVersion"`
	GoVersion  string `json:"goVersion"`
	// Module and Revision come from the binary's embedded build info
	// (empty outside a module-aware build).
	Module   string `json:"module,omitempty"`
	Revision string `json:"revision,omitempty"`
	// EnvelopeProtocols lists the client wire-protocol versions the
	// controller speaks.
	EnvelopeProtocols []int `json:"envelopeProtocols"`
}

// Version reports API and build version information.
func (s *Service) Version() VersionView {
	v := VersionView{
		APIVersion:        APIVersion,
		GoVersion:         runtime.Version(),
		EnvelopeProtocols: []int{int(wire.EnvelopeVersion)},
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		v.Module = info.Main.Path
		for _, st := range info.Settings {
			if st.Key == "vcs.revision" {
				v.Revision = st.Value
			}
		}
	}
	return v
}

// Process roles and states reported by /v1/procs.
const (
	ProcRoleSwitchd = "switchd"
	ProcRoleAgentd  = "agentd"

	ProcStateRunning  = "running"
	ProcStateDegraded = "degraded"
	ProcStateExited   = "exited"
)

// ProcHealth is the controller-side view of one lab process: which group it
// hosts, how it was launched, and its liveness judged by trunk heartbeats
// and child-process state.
type ProcHealth struct {
	// Name is the placement group name.
	Name string `json:"name"`
	// Role is "switchd" or "agentd".
	Role string `json:"role"`
	// Proc is the placement kind ("local-exec" or "external").
	Proc string `json:"proc"`
	// PID is the OS process ID (0 when not yet joined or not local).
	PID int `json:"pid,omitempty"`
	// State is "running", "degraded" (missed heartbeats or lost switch
	// sessions) or "exited".
	State string `json:"state"`
	// Switches / Agents list what the process hosts.
	Switches []uint32 `json:"switches,omitempty"`
	Agents   []uint64 `json:"agents,omitempty"`
	// Detail carries the degradation or exit reason.
	Detail string `json:"detail,omitempty"`
	// Joins counts trunk join handshakes (>1 means the process rejoined
	// after losing its trunk).
	Joins int `json:"joins,omitempty"`
}

// ProcsView lists per-process health of a multi-process lab.
type ProcsView struct {
	Procs []ProcHealth `json:"procs"`
	Total int          `json:"total"`
}

// Procs reports per-process health. A single-process lab reports an empty
// list.
func (s *Service) Procs() ProcsView {
	view := ProcsView{Procs: []ProcHealth{}}
	if s.procs != nil {
		if ps := s.procs(); ps != nil {
			view.Procs = ps
		}
	}
	view.Total = len(view.Procs)
	return view
}

// OverviewView is the one-screen health summary.
type OverviewView struct {
	SnapshotID uint64 `json:"snapshotId"`
	Switches   int    `json:"switches"`
	// Controller activity counters.
	ActivePolls   uint64 `json:"activePolls"`
	PassiveEvents uint64 `json:"passiveEvents"`
	Resyncs       uint64 `json:"resyncs"`
	QueriesServed uint64 `json:"queriesServed"`
	// Subscription engine counters.
	SubsActive      uint64 `json:"subsActive"`
	SubsViolated    int    `json:"subsViolated"`
	Rechecks        uint64 `json:"rechecks"`
	Evaluated       uint64 `json:"evaluated"`
	Revalidated     uint64 `json:"revalidated"`
	IndexDispatched uint64 `json:"indexDispatched"`
	DeltaSkipped    uint64 `json:"deltaSkipped"`
	// ClassTests counts delta-vs-traversal-class tests dispatch ran;
	// PendingRestore counts restored invariants not yet re-verified.
	ClassTests     uint64 `json:"classTests"`
	PendingRestore int    `json:"pendingRestore"`
	Violations     uint64 `json:"violations"`
	Recoveries     uint64 `json:"recoveries"`
	// Push delivery: transitions delivered to / refused by (or, with no
	// session, never sent to) a switch session, and the signed batches the
	// delivered ones travelled in (sent/batches is the signatures-saved
	// fan-in).
	NotificationsSent    uint64 `json:"notificationsSent"`
	NotificationsDropped uint64 `json:"notificationsDropped"`
	NotifyBatches        uint64 `json:"notifyBatches"`
	// ChainsDropped counts chunked client requests discarded incomplete.
	ChainsDropped uint64 `json:"chainsDropped"`
	// Violation-log ring occupancy: retained/capacity, plus how many old
	// transitions the bounded ring has overwritten since boot.
	VlogRetained int    `json:"vlogRetained"`
	VlogCapacity int    `json:"vlogCapacity"`
	VlogDropped  uint64 `json:"vlogDropped"`
}

// Overview assembles the health summary from atomic and per-shard reads.
func (s *Service) Overview() OverviewView {
	st := s.ctl.Stats()
	es := s.ctl.SubscriptionStats()
	violated := 0
	for _, sh := range s.ctl.ShardStats() {
		violated += sh.Violated
	}
	attached := 0
	for _, ss := range s.ctl.SwitchSessions() {
		if ss.Attached() {
			attached++
		}
	}
	vlog := s.ctl.ViolationLog()
	return OverviewView{
		SnapshotID:      s.ctl.SnapshotID(),
		VlogRetained:    vlog.Len(),
		VlogCapacity:    vlog.Capacity(),
		VlogDropped:     vlog.Dropped(),
		Switches:        attached,
		ActivePolls:     st.ActivePolls,
		PassiveEvents:   st.PassiveEvents,
		Resyncs:         st.Resyncs,
		QueriesServed:   st.QueriesServed,
		SubsActive:      uint64(es.Active),
		SubsViolated:    violated,
		Rechecks:        es.Rechecks,
		Evaluated:       es.Evaluated,
		Revalidated:     es.Revalidated,
		IndexDispatched: es.IndexDispatched,
		DeltaSkipped:    es.DeltaSkipped,
		ClassTests:      es.ClassTests,
		PendingRestore:  es.PendingRestore,
		Violations:      es.Violations,
		Recoveries:      es.Recoveries,

		NotificationsSent:    es.NotificationsSent,
		NotificationsDropped: es.NotificationsDropped,
		NotifyBatches:        es.NotifyBatches,
		ChainsDropped:        es.ChainsDropped,
	}
}
