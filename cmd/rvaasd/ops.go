package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/rvaas/admin"
)

// runOps is the operator CLI over a running lab's admin API.
//
//	rvaasd ops overview
//	rvaasd ops version
//	rvaasd ops subs -filter status=violated -filter client=3 -limit 50
//	rvaasd ops shards
//	rvaasd ops sessions
//	rvaasd ops procs
//	rvaasd ops campaign
//	rvaasd ops history <sub-id>
//	rvaasd ops resync <switch-id>
//	rvaasd ops faults
//	rvaasd ops faults inject -target trunk -group right -kind partition -for 2s
//	rvaasd ops faults clear -id 3   (or -all)
//
// -admin selects the controller's admin endpoint (any host, not just
// loopback); -timeout bounds each request. Admin API errors map to distinct
// process exit codes (see exitCode).
func runOps(args []string) error {
	if len(args) == 0 {
		return usageErr("rvaasd ops: missing verb (want overview, version, subs, shards, sessions, procs, campaign, history, resync or faults)")
	}
	verb, rest := args[0], args[1:]
	// faults takes a sub-action (inject, clear) before its flags; the bare
	// verb lists.
	sub := ""
	if verb == "faults" && len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
		sub, rest = rest[0], rest[1:]
	}
	fsName := "rvaasd ops " + verb
	if sub != "" {
		fsName += " " + sub
	}
	fs := flag.NewFlagSet(fsName, flag.ContinueOnError)
	adminAddr := fs.String("admin", defaultAdminAddr, "admin API address of the running lab (host:port, any host)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request timeout")
	var filters filterFlags
	limit := fs.Int("limit", 0, "entries per page (0 = server default)")
	cursor := fs.Uint64("cursor", 0, "resume a listing from this cursor")
	allHelp := "follow the cursor through every page"
	if verb == "faults" {
		allHelp = "clear every fault window"
	}
	allPages := fs.Bool("all", false, allHelp)
	if verb == "subs" {
		fs.Var(&filters, "filter", "key=value filter (status|client|kind|session), repeatable")
	}
	var fTarget, fGroup, fKind, fProfile *string
	var fSwitch *uint
	var fFor *time.Duration
	var fID *uint64
	if verb == "faults" {
		fTarget = fs.String("target", "", "fault target: trunk, channel or proc (inject)")
		fGroup = fs.String("group", "", "placement group (trunk and proc targets)")
		fKind = fs.String("kind", "", "trunk/proc fault kind: partition, stall, reset, starve-beats, kill")
		fProfile = fs.String("profile", "", "declared channel profile name (channel target)")
		fSwitch = fs.Uint("switch", 0, "scope a channel window to one switch (0 = every switch)")
		fFor = fs.Duration("for", 0, "window duration (0 = until cleared)")
		fID = fs.Uint64("id", 0, "fault window id (clear)")
	}
	if err := fs.Parse(rest); err != nil {
		return usageErr("rvaasd ops: %v", err)
	}
	cli := &opsClient{
		base: "http://" + *adminAddr,
		http: &http.Client{Timeout: *timeout},
	}

	switch verb {
	case "overview":
		return cli.overview()
	case "version":
		return cli.version()
	case "subs":
		return cli.subs(filters, *cursor, *limit, *allPages)
	case "shards":
		return cli.shards()
	case "sessions":
		return cli.sessions()
	case "procs":
		return cli.procs()
	case "campaign":
		return cli.campaign()
	case "history":
		if fs.NArg() != 1 {
			return usageErr("rvaasd ops history: want exactly one subscription ID")
		}
		id, err := strconv.ParseUint(fs.Arg(0), 10, 64)
		if err != nil {
			return usageErr("rvaasd ops history: bad subscription ID %q", fs.Arg(0))
		}
		return cli.history(id)
	case "resync":
		if fs.NArg() != 1 {
			return usageErr("rvaasd ops resync: want exactly one switch ID")
		}
		sw, err := strconv.ParseUint(fs.Arg(0), 10, 32)
		if err != nil {
			return usageErr("rvaasd ops resync: bad switch ID %q", fs.Arg(0))
		}
		return cli.resync(uint32(sw))
	case "faults":
		switch sub {
		case "":
			return cli.faults()
		case "inject":
			return cli.faultInject(admin.FaultInjectRequest{
				Target:     *fTarget,
				Group:      *fGroup,
				Switch:     uint32(*fSwitch),
				Kind:       *fKind,
				Profile:    *fProfile,
				DurationMS: fFor.Milliseconds(),
			})
		case "clear":
			return cli.faultClear(*fID, *allPages)
		}
		return usageErr("rvaasd ops faults: unknown action %q (want inject, clear, or no action to list)", sub)
	}
	return usageErr("rvaasd ops: unknown verb %q (want overview, version, subs, shards, sessions, procs, campaign, history, resync or faults)", verb)
}

// Distinct exit codes per failure class, so scripts driving `rvaasd ops`
// can branch on the admin API's typed error codes.
const (
	exitUsage      = 2
	exitBadRequest = 3
	exitNotFound   = 4
	exitConflict   = 5
	exitInternal   = 6
	exitConnect    = 7
)

// usageError marks a local CLI misuse (exit code 2).
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

func usageErr(format string, args ...any) error {
	return &usageError{msg: fmt.Sprintf(format, args...)}
}

// apiError carries a decoded admin error envelope (exit code by Code).
type apiError struct {
	Envelope admin.Error
}

func (e *apiError) Error() string {
	return fmt.Sprintf("rvaasd ops: admin API: %s", e.Envelope.Error())
}

// connectError marks a transport-level failure reaching the admin endpoint
// (exit code 7).
type connectError struct{ err error }

func (e *connectError) Error() string {
	return fmt.Sprintf("rvaasd ops: %v (is a lab running? start one with `rvaasd deploy -topo <spec>`)", e.err)
}

func (e *connectError) Unwrap() error { return e.err }

// exitCode maps an error from run() to the process exit code.
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	var usage *usageError
	if errors.As(err, &usage) {
		return exitUsage
	}
	var conn *connectError
	if errors.As(err, &conn) {
		return exitConnect
	}
	var api *apiError
	if errors.As(err, &api) {
		switch api.Envelope.Code {
		case admin.CodeBadRequest, admin.CodeMethodNotAllowed:
			return exitBadRequest
		case admin.CodeNotFound:
			return exitNotFound
		case admin.CodeConflict:
			return exitConflict
		default:
			return exitInternal
		}
	}
	return 1
}

// filterFlags collects repeatable -filter key=value flags.
type filterFlags []string

func (f *filterFlags) String() string { return strings.Join(*f, ",") }

func (f *filterFlags) Set(v string) error {
	key, _, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want key=value")
	}
	switch key {
	case "status", "client", "kind", "session":
		*f = append(*f, v)
		return nil
	}
	return fmt.Errorf("unknown filter key %q (want status, client, kind or session)", key)
}

func (f filterFlags) query() url.Values {
	q := url.Values{}
	for _, kv := range f {
		key, val, _ := strings.Cut(kv, "=")
		q.Set(key, val)
	}
	return q
}

// opsClient is the thin HTTP client side of the ops CLI.
type opsClient struct {
	base string
	http *http.Client
}

func (c *opsClient) get(path string, into any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return &connectError{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeAPIError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func decodeAPIError(resp *http.Response) error {
	var envelope admin.Error
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err == nil && envelope.Code != "" {
		return &apiError{Envelope: envelope}
	}
	return &apiError{Envelope: admin.Error{
		Code:    admin.CodeInternal,
		Message: fmt.Sprintf("admin API returned %s without a typed envelope", resp.Status),
	}}
}

func (c *opsClient) overview() error {
	var ov admin.OverviewView
	if err := c.get("/v1/overview", &ov); err != nil {
		return err
	}
	fmt.Fprintf(out, "snapshot=%d switches=%d\n", ov.SnapshotID, ov.Switches)
	fmt.Fprintf(out, "subscriptions: active=%d violated=%d\n", ov.SubsActive, ov.SubsViolated)
	fmt.Fprintf(out, "engine: rechecks=%d evaluated=%d revalidated-free=%d indexDispatched=%d deltaSkipped=%d classTests=%d pendingRestore=%d\n",
		ov.Rechecks, ov.Evaluated, ov.Revalidated, ov.IndexDispatched, ov.DeltaSkipped, ov.ClassTests, ov.PendingRestore)
	fmt.Fprintf(out, "verdicts: violations=%d recoveries=%d\n", ov.Violations, ov.Recoveries)
	fmt.Fprintf(out, "pushes: sent=%d dropped=%d batches=%d chains-dropped=%d\n",
		ov.NotificationsSent, ov.NotificationsDropped, ov.NotifyBatches, ov.ChainsDropped)
	fmt.Fprintf(out, "violation-log: retained=%d/%d dropped=%d\n", ov.VlogRetained, ov.VlogCapacity, ov.VlogDropped)
	fmt.Fprintf(out, "controller: polls=%d passiveEvents=%d resyncs=%d queries=%d\n",
		ov.ActivePolls, ov.PassiveEvents, ov.Resyncs, ov.QueriesServed)
	return nil
}

func (c *opsClient) version() error {
	var v admin.VersionView
	if err := c.get("/v1/version", &v); err != nil {
		return err
	}
	protos := make([]string, len(v.EnvelopeProtocols))
	for i, p := range v.EnvelopeProtocols {
		protos[i] = strconv.Itoa(p)
	}
	fmt.Fprintf(out, "api=v%s envelopes=v%s\n", v.APIVersion, strings.Join(protos, ",v"))
	fmt.Fprintf(out, "build: %s %s", v.Module, v.GoVersion)
	if v.Revision != "" {
		fmt.Fprintf(out, " rev=%s", v.Revision)
	}
	fmt.Fprintln(out)
	return nil
}

func (c *opsClient) subs(filters filterFlags, cursor uint64, limit int, allPages bool) error {
	q := filters.query()
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	fmt.Fprintf(out, "%-6s %-8s %-8s %-24s %-9s %-6s %s\n",
		"ID", "CLIENT", "SESSION", "KIND", "STATUS", "SEQ", "DETAIL")
	shown := 0
	for {
		if cursor > 0 {
			q.Set("cursor", strconv.FormatUint(cursor, 10))
		}
		var page admin.SubPage
		if err := c.get("/v1/subs?"+q.Encode(), &page); err != nil {
			return err
		}
		for _, s := range page.Subs {
			detail := s.Detail
			if len(detail) > 48 {
				detail = detail[:45] + "..."
			}
			fmt.Fprintf(out, "%-6d %-8d %-8d %-24s %-9s %-6d %s\n",
				s.ID, s.Client, s.Session, s.Kind, s.Status, s.Seq, detail)
		}
		shown += len(page.Subs)
		if page.NextCursor == 0 || !allPages {
			if page.NextCursor != 0 {
				fmt.Fprintf(out, "-- %d of %d matching; next page: -cursor %d (or -all)\n",
					shown, page.Total, page.NextCursor)
			} else {
				fmt.Fprintf(out, "-- %d matching\n", page.Total)
			}
			return nil
		}
		cursor = page.NextCursor
	}
}

func (c *opsClient) shards() error {
	var shards []admin.ShardView
	if err := c.get("/v1/shards", &shards); err != nil {
		return err
	}
	fmt.Fprintf(out, "%-6s %-7s %-9s %-12s %-12s %s\n", "SHARD", "ACTIVE", "VIOLATED", "IDX-BUCKETS", "IDX-CLASSES", "IDX-ENTRIES")
	active, violated := 0, 0
	for _, sh := range shards {
		fmt.Fprintf(out, "%-6d %-7d %-9d %-12d %-12d %d\n",
			sh.Shard, sh.Active, sh.Violated, sh.IndexBuckets, sh.IndexClasses, sh.IndexEntries)
		active += sh.Active
		violated += sh.Violated
	}
	fmt.Fprintf(out, "-- %d shards, %d active, %d violated\n", len(shards), active, violated)
	return nil
}

func (c *opsClient) sessions() error {
	var view admin.SessionsView
	if err := c.get("/v1/sessions", &view); err != nil {
		return err
	}
	fmt.Fprintf(out, "client sessions (%d):\n", view.TotalClients)
	for _, cs := range view.Clients {
		fmt.Fprintf(out, "  client=%-6d session=%-12d subs=%d violated=%d\n",
			cs.Client, cs.Session, cs.Subscriptions, cs.Violated)
	}
	fmt.Fprintf(out, "switch sessions (%d):\n", len(view.Switches))
	for _, ss := range view.Switches {
		fmt.Fprintf(out, "  switch=%-6d peer=%-12s %-10s selfRulesMissing=%d\n",
			ss.Switch, ss.PeerName, ss.State, ss.SelfRulesMissing)
	}
	return nil
}

func (c *opsClient) procs() error {
	var view admin.ProcsView
	if err := c.get("/v1/procs", &view); err != nil {
		return err
	}
	if view.Total == 0 {
		fmt.Fprintln(out, "no placed processes (single-process lab)")
		return nil
	}
	fmt.Fprintf(out, "%-12s %-8s %-10s %-7s %-9s %s\n", "GROUP", "ROLE", "PROC", "PID", "STATE", "DETAIL")
	for _, p := range view.Procs {
		hosts := ""
		if len(p.Switches) > 0 {
			hosts = fmt.Sprintf("switches=%v", p.Switches)
		}
		if len(p.Agents) > 0 {
			hosts = fmt.Sprintf("agents=%v", p.Agents)
		}
		detail := p.Detail
		if detail == "" {
			detail = hosts
		} else if hosts != "" {
			detail = hosts + " " + detail
		}
		fmt.Fprintf(out, "%-12s %-8s %-10s %-7d %-9s %s\n",
			p.Name, p.Role, p.Proc, p.PID, p.State, detail)
	}
	fmt.Fprintf(out, "-- %d processes\n", view.Total)
	return nil
}

func (c *opsClient) campaign() error {
	var view admin.CampaignView
	if err := c.get("/v1/campaign", &view); err != nil {
		return err
	}
	state := "finished"
	if view.Running {
		state = "running"
	}
	fmt.Fprintf(out, "campaign %s: seed=%d step=%d/%d\n",
		state, view.Seed, view.Step, view.Steps)
	if view.LastAction != "" {
		fmt.Fprintf(out, "last action: %s\n", view.LastAction)
	}
	fmt.Fprintf(out, "streams: events=%d transitions=%d staleGreenMax=%s\n",
		view.Events, view.Transitions, view.StaleGreenMax)
	if view.Fingerprint != "" {
		fmt.Fprintf(out, "fingerprint: %s\n", view.Fingerprint)
	}
	if view.Diverged && view.Divergence != nil {
		fmt.Fprintf(out, "DIVERGED at step %d (%s): %s divergence: %s\n",
			view.Divergence.Step, view.Divergence.Action, view.Divergence.Kind, view.Divergence.Detail)
	} else {
		fmt.Fprintln(out, "no divergence")
	}
	return nil
}

func (c *opsClient) history(id uint64) error {
	var view admin.HistoryView
	if err := c.get(fmt.Sprintf("/v1/subs/%d/history", id), &view); err != nil {
		return err
	}
	state := "live"
	if !view.Live {
		state = "removed"
	}
	fmt.Fprintf(out, "subscription %d (%s): %d verdict transitions\n", view.SubID, state, view.Total)
	for _, v := range view.Verdicts {
		fmt.Fprintf(out, "  %s %-9s client=%d kind=%s snapshot=%d %s\n",
			v.At.Format("15:04:05.000"), v.Event, v.Client, v.Kind, v.SnapshotID, v.Detail)
	}
	return nil
}

func (c *opsClient) resync(sw uint32) error {
	resp, err := c.http.Post(fmt.Sprintf("%s/v1/resync?switch=%d", c.base, sw), "", nil)
	if err != nil {
		return &connectError{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return decodeAPIError(resp)
	}
	fmt.Fprintf(out, "resync of switch %d triggered\n", sw)
	return nil
}

// postJSON posts a JSON body (nil for none) and decodes the response into
// into when the status matches wantStatus.
func (c *opsClient) postJSON(path string, body, into any, wantStatus int) error {
	var reader io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		reader = bytes.NewReader(b)
	}
	resp, err := c.http.Post(c.base+path, "application/json", reader)
	if err != nil {
		return &connectError{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		return decodeAPIError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func (c *opsClient) faults() error {
	var view admin.FaultsView
	if err := c.get("/v1/faults", &view); err != nil {
		return err
	}
	fmt.Fprintf(out, "fault plane: seed=%d\n", view.Seed)
	if len(view.Profiles) > 0 {
		fmt.Fprintf(out, "profiles (%d):\n", len(view.Profiles))
		for _, p := range view.Profiles {
			fmt.Fprintf(out, "  %-12s drop=%.3f dup=%.3f reorder=%.3f latency=%dms jitter=%dms\n",
				p.Name, p.Drop, p.Duplicate, p.Reorder, p.LatencyMS, p.JitterMS)
		}
	}
	fmt.Fprintf(out, "windows (%d):\n", len(view.Windows))
	for _, w := range view.Windows {
		fmt.Fprintf(out, "  %s\n", windowLine(w))
	}
	cn := view.Counters
	fmt.Fprintf(out, "counters: channel drop=%d delay=%d dup=%d reorder=%d; trunk drop=%d delay=%d; joinsRefused=%d\n",
		cn.ChannelDropped, cn.ChannelDelayed, cn.ChannelDuplicated, cn.ChannelReordered,
		cn.TrunkDropped, cn.TrunkDelayed, cn.JoinsRefused)
	return nil
}

func windowLine(w admin.FaultWindowView) string {
	sel := ""
	switch w.Target {
	case "trunk", "proc":
		sel = fmt.Sprintf("group=%s kind=%s", w.Group, w.Kind)
	case "channel":
		sel = fmt.Sprintf("profile=%s", w.Profile)
		if w.Switch != 0 {
			sel += fmt.Sprintf(" switch=%d", w.Switch)
		}
	}
	span := "until cleared"
	if !w.Until.IsZero() {
		span = "until " + w.Until.Format("15:04:05.000")
	}
	state := "pending"
	if w.Active {
		state = "active"
	}
	return fmt.Sprintf("id=%-4d %-8s %s  start=%s %s  [%s]",
		w.ID, w.Target, sel, w.Start.Format("15:04:05.000"), span, state)
}

func (c *opsClient) faultInject(req admin.FaultInjectRequest) error {
	if req.Target == "" {
		return usageErr("rvaasd ops faults inject: -target is required (trunk, channel or proc)")
	}
	var win admin.FaultWindowView
	if err := c.postJSON("/v1/faults", req, &win, http.StatusCreated); err != nil {
		return err
	}
	fmt.Fprintf(out, "fault window opened: %s\n", windowLine(win))
	return nil
}

func (c *opsClient) faultClear(id uint64, all bool) error {
	if !all && id == 0 {
		return usageErr("rvaasd ops faults clear: want -id <window> or -all")
	}
	path := "/v1/faults/clear?"
	if all {
		path += "all=1"
	} else {
		path += "id=" + strconv.FormatUint(id, 10)
	}
	var res admin.FaultClearResult
	if err := c.postJSON(path, nil, &res, http.StatusOK); err != nil {
		return err
	}
	fmt.Fprintf(out, "cleared %d fault window(s)\n", res.Cleared)
	return nil
}
