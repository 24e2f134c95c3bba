package admin_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/openflow"
	"repro/internal/rvaas/admin"
	"repro/internal/topology"
	"repro/internal/wire"
)

// lab brings up a linear deployment, subscribes every access point to
// reachability toward the last client's host, and returns the service plus
// the blackhole entry that (when installed on the victim switch) flips
// those subscriptions to violated.
func lab(t *testing.T, size int) (*deploy.Deployment, *admin.Service, topology.SwitchID, openflow.FlowEntry) {
	t.Helper()
	clients := make([]uint64, size)
	for i := range clients {
		clients[i] = uint64(i + 1)
	}
	topo, err := topology.Linear(size, clients)
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	d, err := deploy.New(topo, deploy.Options{SkipAgents: true, ManualRecheck: true})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	t.Cleanup(d.Close)

	aps := topo.AccessPoints()
	dst := aps[len(aps)-1]
	for _, ap := range aps {
		// The destination client watches reachability toward client 1 instead
		// of itself (same-switch self-reachability never crosses the fabric),
		// so every subscription starts in the OK state.
		target := dst
		if ap.ClientID == dst.ClientID {
			target = aps[0]
		}
		if _, err := d.RVaaS.Subscribe(ap.ClientID, wire.QueryReachableDestinations, []wire.FieldConstraint{
			{Field: wire.FieldIPDst, Value: uint64(target.HostIP), Mask: 0xFFFFFFFF},
		}, "", ap.Endpoint); err != nil {
			t.Fatalf("subscribe client %d: %v", ap.ClientID, err)
		}
	}
	blackhole := openflow.FlowEntry{
		Priority: 3000,
		Match: openflow.Match{Fields: []openflow.FieldMatch{
			{Field: wire.FieldIPDst, Value: uint64(dst.HostIP), Mask: 0xFFFFFFFF},
		}},
		Cookie: 0xB1AC_0001,
	}
	return d, admin.NewService(d.RVaaS), dst.Endpoint.Switch, blackhole
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// awaitViolated polls (re-checking manually — flow-mod events reach RVaaS
// asynchronously over the secure channel) until exactly want subscriptions
// are violated, and returns that listing.
func awaitViolated(t *testing.T, d *deploy.Deployment, svc *admin.Service, want int) admin.SubPage {
	t.Helper()
	var page admin.SubPage
	waitUntil(t, fmt.Sprintf("%d violated subscriptions", want), func() bool {
		d.RVaaS.RecheckNow()
		var err error
		page, err = svc.ListSubscriptions(admin.SubFilter{Status: admin.StatusViolated}, 0, 0)
		if err != nil {
			t.Fatalf("violated list: %v", err)
		}
		return page.Total == want
	})
	return page
}

func TestListSubscriptionsFilterAndPaginate(t *testing.T) {
	const size = 12
	d, svc, victim, blackhole := lab(t, size)

	all, err := svc.ListSubscriptions(admin.SubFilter{}, 0, 0)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if all.Total != size || len(all.Subs) != size || all.NextCursor != 0 {
		t.Fatalf("list all = total %d, %d subs, next %d; want %d, %d, 0",
			all.Total, len(all.Subs), all.NextCursor, size, size)
	}
	for i := 1; i < len(all.Subs); i++ {
		if all.Subs[i].ID <= all.Subs[i-1].ID {
			t.Fatalf("subs not in ID order at %d", i)
		}
	}

	// Paginate by 5: 12 subs = pages of 5, 5, 2.
	var got []uint64
	cursor, pages := uint64(0), 0
	for {
		page, err := svc.ListSubscriptions(admin.SubFilter{}, cursor, 5)
		if err != nil {
			t.Fatalf("page: %v", err)
		}
		pages++
		for _, s := range page.Subs {
			got = append(got, s.ID)
		}
		if page.NextCursor == 0 {
			break
		}
		cursor = page.NextCursor
	}
	if pages != 3 || len(got) != size {
		t.Fatalf("pagination: %d pages, %d subs; want 3 pages, %d subs", pages, len(got), size)
	}
	for i, s := range all.Subs {
		if got[i] != s.ID {
			t.Fatalf("paged walk diverges at %d: got %d want %d", i, got[i], s.ID)
		}
	}

	// No violations yet.
	viol, err := svc.ListSubscriptions(admin.SubFilter{Status: admin.StatusViolated}, 0, 0)
	if err != nil {
		t.Fatalf("violated list: %v", err)
	}
	if viol.Total != 0 {
		t.Fatalf("violated before blackhole: total %d, want 0", viol.Total)
	}

	// Blackhole the destination: every subscription watching it (all but the
	// destination client's own, which watches client 1) flips to violated.
	d.Fabric.Switch(victim).InstallDirect(blackhole)
	viol = awaitViolated(t, d, svc, size-1)
	for _, s := range viol.Subs {
		if s.Status != admin.StatusViolated {
			t.Fatalf("sub %d in violated listing has status %q", s.ID, s.Status)
		}
	}
	ok, err := svc.ListSubscriptions(admin.SubFilter{Status: admin.StatusOK}, 0, 0)
	if err != nil {
		t.Fatalf("ok list: %v", err)
	}
	if ok.Total+viol.Total != size {
		t.Fatalf("ok %d + violated %d != %d", ok.Total, viol.Total, size)
	}

	// Client filter.
	one, err := svc.ListSubscriptions(admin.SubFilter{Client: 3}, 0, 0)
	if err != nil {
		t.Fatalf("client list: %v", err)
	}
	if one.Total != 1 || one.Subs[0].Client != 3 {
		t.Fatalf("client=3 filter: %+v", one)
	}
	// Kind filter (all same kind here; a bogus kind matches nothing).
	none, err := svc.ListSubscriptions(admin.SubFilter{Kind: "isolation"}, 0, 0)
	if err != nil {
		t.Fatalf("kind list: %v", err)
	}
	if none.Total != 0 {
		t.Fatalf("kind=isolation: total %d, want 0", none.Total)
	}
	if _, err := svc.ListSubscriptions(admin.SubFilter{Status: "bogus"}, 0, 0); err == nil {
		t.Fatal("bogus status filter accepted")
	}
}

func TestShardStatsAndOverview(t *testing.T) {
	const size = 8
	d, svc, victim, blackhole := lab(t, size)

	shards := svc.ShardStats()
	active, entries, classes := 0, 0, 0
	for _, sh := range shards {
		active += sh.Active
		entries += sh.IndexEntries
		classes += sh.IndexClasses
	}
	if active != size {
		t.Fatalf("shard active sum %d, want %d", active, size)
	}
	if entries == 0 || classes == 0 || classes > entries {
		t.Fatalf("inverted index holds %d entries in %d classes with standing invariants registered", entries, classes)
	}

	ov := svc.Overview()
	if ov.SubsActive != size || ov.SubsViolated != 0 || ov.Switches != size || ov.PendingRestore != 0 {
		t.Fatalf("overview before blackhole: %+v", ov)
	}
	tests := ov.ClassTests

	d.Fabric.Switch(victim).InstallDirect(blackhole)
	awaitViolated(t, d, svc, size-1)
	ov = svc.Overview()
	if ov.SubsViolated != size-1 || ov.Violations == 0 || ov.ClassTests <= tests {
		t.Fatalf("overview after blackhole: %+v", ov)
	}
	d.Fabric.Switch(victim).RemoveDirect(blackhole)
	awaitViolated(t, d, svc, 0)
	ov = svc.Overview()
	if ov.SubsViolated != 0 || ov.Recoveries == 0 {
		t.Fatalf("overview after recovery: %+v", ov)
	}
	// The background pass counts its pushes when it flushes them, a moment
	// after the verdicts show. One invariant per access point: every
	// transition travelled in a batch of its own.
	waitUntil(t, "every transition pushed", func() bool {
		ov = svc.Overview()
		return ov.NotificationsSent == ov.Violations+ov.Recoveries
	})
	if ov.NotifyBatches != ov.NotificationsSent || ov.NotificationsDropped != 0 || ov.ChainsDropped != 0 {
		t.Fatalf("overview push counters: %+v", ov)
	}
}

func TestVerdictHistoryAndSessions(t *testing.T) {
	d, svc, victim, blackhole := lab(t, 4)

	d.Fabric.Switch(victim).InstallDirect(blackhole)
	viol := awaitViolated(t, d, svc, 3)
	sub := viol.Subs[0]

	hist, err := svc.VerdictHistory(sub.ID, 0, 0)
	if err != nil {
		t.Fatalf("history: %v", err)
	}
	if !hist.Live || len(hist.Verdicts) == 0 || hist.Total != len(hist.Verdicts) {
		t.Fatalf("history: %+v", hist)
	}
	if hist.Verdicts[len(hist.Verdicts)-1].Event != "violation" {
		t.Fatalf("last verdict %q, want violation", hist.Verdicts[len(hist.Verdicts)-1].Event)
	}
	// History pagination: limit 1 walks the ring one verdict per page.
	var walked int
	for cursor := uint64(0); ; {
		page, err := svc.VerdictHistory(sub.ID, cursor, 1)
		if err != nil {
			t.Fatalf("history page: %v", err)
		}
		walked += len(page.Verdicts)
		if page.NextCursor == 0 {
			break
		}
		cursor = page.NextCursor
	}
	if walked != hist.Total {
		t.Fatalf("history pagination walked %d of %d", walked, hist.Total)
	}
	if _, err := svc.VerdictHistory(999999, 0, 0); err == nil {
		t.Fatal("history for unknown sub accepted")
	} else if admin.AsError(err).Code != admin.CodeNotFound {
		t.Fatalf("unknown sub error code = %q, want not_found", admin.AsError(err).Code)
	}

	sess := svc.Sessions(0, 0)
	if len(sess.Switches) != 4 {
		t.Fatalf("switch sessions: %d, want 4", len(sess.Switches))
	}
	if sess.Switches[0].PeerName != "switch-1" {
		t.Fatalf("peer name %q", sess.Switches[0].PeerName)
	}
	if len(sess.Clients) != 4 {
		t.Fatalf("client sessions: %d, want 4", len(sess.Clients))
	}
	for _, cs := range sess.Clients {
		if cs.Subscriptions != 1 {
			t.Fatalf("client %d session: %+v", cs.Client, cs)
		}
	}
	if sess.TotalClients != 4 {
		t.Fatalf("totalClients = %d, want 4", sess.TotalClients)
	}

	// Client-session pagination walks every session exactly once.
	var clients []uint64
	for cursor := uint64(0); ; {
		page := svc.Sessions(cursor, 3)
		for _, cs := range page.Clients {
			clients = append(clients, cs.Client)
		}
		if page.NextCursor == 0 {
			break
		}
		cursor = page.NextCursor
	}
	if len(clients) != 4 {
		t.Fatalf("paged client sessions = %v, want 4 entries", clients)
	}
}

func TestForceResync(t *testing.T) {
	d, svc, _, _ := lab(t, 3)
	if err := svc.ForceResync(2); err != nil {
		t.Fatalf("resync attached switch: %v", err)
	}
	waitUntil(t, "resync counted", func() bool { return d.RVaaS.Stats().Resyncs > 0 })
	err := svc.ForceResync(99)
	if err == nil {
		t.Fatal("resync of unknown switch accepted")
	}
	if admin.AsError(err).Code != admin.CodeNotFound {
		t.Fatalf("unknown switch error code = %q, want not_found", admin.AsError(err).Code)
	}
}

func TestVersionAndProcs(t *testing.T) {
	_, svc, _, _ := lab(t, 3)
	v := svc.Version()
	if v.APIVersion != admin.APIVersion || v.GoVersion == "" {
		t.Fatalf("version: %+v", v)
	}
	if len(v.EnvelopeProtocols) != 1 || v.EnvelopeProtocols[0] != 2 {
		t.Fatalf("envelope protocols: %v", v.EnvelopeProtocols)
	}

	// No proc source: empty but well-formed.
	procs := svc.Procs()
	if procs.Total != 0 || procs.Procs == nil {
		t.Fatalf("procs without source: %+v", procs)
	}
	svc.WithProcs(func() []admin.ProcHealth {
		return []admin.ProcHealth{{
			Name: "sw-left", Role: admin.ProcRoleSwitchd, Proc: "local-exec",
			PID: 4242, State: admin.ProcStateRunning, Switches: []uint32{1, 2},
		}}
	})
	procs = svc.Procs()
	if procs.Total != 1 || procs.Procs[0].Name != "sw-left" {
		t.Fatalf("procs with source: %+v", procs)
	}
}

// TestHTTPHandler exercises the full handler → service → controller path
// over httptest, including the ops-CLI flagship query:
// /v1/subs?status=violated&pageSize=50.
func TestHTTPHandler(t *testing.T) {
	const size = 10
	d, svc, victim, blackhole := lab(t, size)
	srv := httptest.NewServer(admin.Handler(svc))
	t.Cleanup(srv.Close)

	getJSON := func(path string, into any) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("GET %s: decode: %v", path, err)
			}
		}
		return resp
	}

	var ov admin.OverviewView
	resp := getJSON("/v1/overview", &ov)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("overview status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(admin.APIVersionHeader); got != admin.APIVersion {
		t.Fatalf("%s header = %q, want %q", admin.APIVersionHeader, got, admin.APIVersion)
	}
	if ov.SubsActive != size {
		t.Fatalf("overview subsActive %d, want %d", ov.SubsActive, size)
	}

	var ver admin.VersionView
	if resp := getJSON("/v1/version", &ver); resp.StatusCode != http.StatusOK {
		t.Fatalf("version status %d", resp.StatusCode)
	}
	if ver.APIVersion != admin.APIVersion || len(ver.EnvelopeProtocols) == 0 {
		t.Fatalf("version body: %+v", ver)
	}

	d.Fabric.Switch(victim).InstallDirect(blackhole)
	awaitViolated(t, d, svc, size-1)

	var page admin.SubPage
	if resp := getJSON("/v1/subs?status=violated&limit=50", &page); resp.StatusCode != http.StatusOK {
		t.Fatalf("subs status %d", resp.StatusCode)
	}
	if page.Total != size-1 || len(page.Subs) != page.Total || page.NextCursor != 0 {
		t.Fatalf("violated page: %+v", page)
	}

	// Pagination over HTTP: limit=3 cursor walk covers every sub once.
	seen := map[uint64]bool{}
	cursor := uint64(0)
	for {
		var p admin.SubPage
		getJSON(fmt.Sprintf("/v1/subs?limit=3&cursor=%d", cursor), &p)
		for _, s := range p.Subs {
			if seen[s.ID] {
				t.Fatalf("sub %d returned twice", s.ID)
			}
			seen[s.ID] = true
		}
		if p.NextCursor == 0 {
			break
		}
		cursor = p.NextCursor
	}
	if len(seen) != size {
		t.Fatalf("cursor walk covered %d of %d subs", len(seen), size)
	}

	var hist admin.HistoryView
	if resp := getJSON(fmt.Sprintf("/v1/subs/%d/history", page.Subs[0].ID), &hist); resp.StatusCode != http.StatusOK {
		t.Fatalf("history status %d", resp.StatusCode)
	}
	if len(hist.Verdicts) == 0 || hist.Verdicts[0].Event != "violation" {
		t.Fatalf("history over http: %+v", hist)
	}

	var shards []admin.ShardView
	getJSON("/v1/shards", &shards)
	if len(shards) != 32 {
		t.Fatalf("shards: %d, want 32", len(shards))
	}

	var sess admin.SessionsView
	getJSON("/v1/sessions", &sess)
	if len(sess.Switches) != size {
		t.Fatalf("sessions: %d switches, want %d", len(sess.Switches), size)
	}

	var procs admin.ProcsView
	if resp := getJSON("/v1/procs", &procs); resp.StatusCode != http.StatusOK {
		t.Fatalf("procs status %d", resp.StatusCode)
	}

	// Typed error envelope on every failure shape.
	wantError := func(resp *http.Response, apiErr admin.Error, status int, code admin.ErrorCode, msgSub string) {
		t.Helper()
		if resp.StatusCode != status {
			t.Fatalf("status %d, want %d (envelope %+v)", resp.StatusCode, status, apiErr)
		}
		if apiErr.Code != code {
			t.Fatalf("code %q, want %q (envelope %+v)", apiErr.Code, code, apiErr)
		}
		if msgSub != "" && !strings.Contains(apiErr.Message, msgSub) {
			t.Fatalf("message %q missing %q", apiErr.Message, msgSub)
		}
		if got := resp.Header.Get(admin.APIVersionHeader); got != admin.APIVersion {
			t.Fatalf("error response missing version header (got %q)", got)
		}
	}
	var apiErr admin.Error
	wantError(getJSON("/v1/subs?status=bogus", &apiErr), apiErr,
		http.StatusBadRequest, admin.CodeBadRequest, "unknown status filter")
	apiErr = admin.Error{}
	wantError(getJSON("/v1/subs/notanumber/history", &apiErr), apiErr,
		http.StatusBadRequest, admin.CodeBadRequest, "bad subscription id")
	apiErr = admin.Error{}
	wantError(getJSON("/v1/subs/424242/history", &apiErr), apiErr,
		http.StatusNotFound, admin.CodeNotFound, "no retained history")
	// Pre-v1 pagination names are rejected, not silently ignored.
	apiErr = admin.Error{}
	wantError(getJSON("/v1/subs?pageSize=3", &apiErr), apiErr,
		http.StatusBadRequest, admin.CodeBadRequest, "renamed")
	// Unknown endpoint: typed 404 instead of the mux's plain text.
	apiErr = admin.Error{}
	wantError(getJSON("/v1/nonsense", &apiErr), apiErr,
		http.StatusNotFound, admin.CodeNotFound, "no such endpoint")
	// Wrong method: typed 405.
	resp, err := http.Post(srv.URL+"/v1/overview", "", nil)
	if err != nil {
		t.Fatalf("post overview: %v", err)
	}
	apiErr = admin.Error{}
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatalf("decode 405 envelope: %v", err)
	}
	resp.Body.Close()
	wantError(resp, apiErr, http.StatusMethodNotAllowed, admin.CodeMethodNotAllowed, "not allowed")

	// Resync endpoint.
	resp, err = http.Post(srv.URL+"/v1/resync?switch=1", "", nil)
	if err != nil {
		t.Fatalf("resync: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resync -> %d, want 202", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/resync?switch=77", "", nil)
	if err != nil {
		t.Fatalf("resync: %v", err)
	}
	apiErr = admin.Error{}
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatalf("decode resync envelope: %v", err)
	}
	resp.Body.Close()
	wantError(resp, apiErr, http.StatusNotFound, admin.CodeNotFound, "not in the topology")
}

// TestCampaignEndpoint: GET /v1/campaign conflicts on a deployment with no
// campaign engine attached, and reflects the attached engine's snapshot
// (including a divergence) once one is wired in with WithCampaign.
func TestCampaignEndpoint(t *testing.T) {
	_, svc, _, _ := lab(t, 4)
	srv := httptest.NewServer(admin.Handler(svc))
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/v1/campaign")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("no-engine status = %d, want %d", resp.StatusCode, http.StatusConflict)
	}
	var envelope admin.Error
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Code != admin.CodeConflict {
		t.Fatalf("no-engine envelope = %+v (err %v)", envelope, err)
	}

	want := admin.CampaignView{
		Running: true, Seed: 42, Step: 7, Steps: 40,
		LastAction: "churn sw=3 n=4", Events: 19, Transitions: 2,
		Diverged: true,
		Divergence: &admin.CampaignDivergenceView{
			Step: 7, Action: "lie key=0x1", Kind: "transition", Detail: "primary[0]=...",
		},
		Fingerprint:   "ev:1 verdicts:2 transitions:3",
		StaleGreenMax: "1ms",
	}
	svc.WithCampaign(func() admin.CampaignView { return want })

	ok, err := http.Get(srv.URL + "/v1/campaign")
	if err != nil {
		t.Fatal(err)
	}
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("campaign status = %d", ok.StatusCode)
	}
	var got admin.CampaignView
	if err := json.NewDecoder(ok.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("campaign view round-trip:\n  got  %+v\n  want %+v", got, want)
	}
}

// TestOverviewViolationLog: the bounded violation ring's occupancy and drop
// counter surface in the operator overview.
func TestOverviewViolationLog(t *testing.T) {
	d, svc, victim, blackhole := lab(t, 6)
	d.Fabric.Switch(victim).InstallDirect(blackhole)
	awaitViolated(t, d, svc, 5)

	ov := svc.Overview()
	if ov.VlogRetained == 0 || ov.VlogCapacity == 0 {
		t.Fatalf("violation-log fields not surfaced: %+v", ov)
	}
	if ov.VlogRetained > ov.VlogCapacity {
		t.Fatalf("retained %d exceeds capacity %d", ov.VlogRetained, ov.VlogCapacity)
	}
	if ov.VlogDropped != d.RVaaS.ViolationLog().Dropped() {
		t.Fatalf("dropped %d, controller reports %d", ov.VlogDropped, d.RVaaS.ViolationLog().Dropped())
	}
}
