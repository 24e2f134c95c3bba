// Package hygiene holds repository-wide source checks. It has no non-test
// code. The guard type-checks the repository from source and fails, with
// file:line positions a reader can jump to, on three kinds of dead code: a
// function nothing uses, a struct field nothing reads, and a *Config or
// *Options field nothing sets.
package hygiene

import (
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The guard judges declarations under declRoots. Uses count from every
// package of the root module and of bench/, which builds against it.
var (
	root      = filepath.Join("..", "..")
	declRoots = []string{"internal", "cmd"}
)

// Each allowlist maps a key the guard reports to the reason it stays: why
// types cannot decide it, or which test of another package needs it. A key
// is "pkg.Func", "pkg.Type.Method" or "pkg.Type.Field"; a method key may
// also be a bare method name any type declares, and a field key a whole
// struct type ("pkg.Type") of counters only tests read.
var (
	allowedFuncs = map[string]string{
		"Unwrap": "errors.Is and errors.As reach it by a dynamic type assertion on the error chain",

		"verifier.Engine.CheckConsistency":    "reference structure check every verifier differential test runs",
		"headerspace.Footprint.InvalidatedBy": "brute-force dispatch reference the traversal index is tested against",
		"wire.PacketHeader":                   "model image of a packet: openflow's data plane vs model differential reads it",
		"leakcheck.Check":                     "goroutine-leak check the deploy and procplane tests run",

		"headerspace.MustParse":                        "test helper the tests of several packages share",
		"headerspace.Footprint.AddSlice":               "builds any-port footprints in the verifier's and rvaas's tests",
		"headerspace.Network.Node":                     "the rvaas compile-cache test checks which transfer functions a snapshot reuses",
		"headerspace.TransferFunction.Len":             "the rvaas compile-cache test counts a reused transfer function's rules",
		"history.ViolationLog.Open":                    "the rvaas subscription tests read the open violations",
		"controlplane.Controller.UninstallDestination": "withdraws a route so other packages' tests can break a verdict",
		"client.Agent.SessionID":                       "the experiments protocol test matches a restored subscription to the agent's session",
		"client.Agent.QuoteVerifications":              "attestation-memo counter the deploy and rvaas tests assert on",
		"client.Agent.SignatureVerifications":          "push-batch verify counter the deploy and rvaas tests assert on",
		"client.Agent.Gaps":                            "gap-recovery events the rvaas and experiments tests read",
	}
	allowedFields = map[string]string{
		"switchsim.Stats":       "switch counters the switchsim, deploy and experiments tests assert on",
		"rvaas.Stats":           "controller counters the rvaas and deploy tests assert on",
		"verifier.Stats":        "engine counters the verifier, rvaas and admin tests assert on",
		"client.GapEvent":       "gap-recovery record the rvaas and experiments tests read through Agent.Gaps",
		"client.Agent.authSeen": "auth-challenge counter the client tests read",
		"client.Agent.resumes":  "session-resume counter the client tests read",

		"experiments.MonitoringRow.EventsApplied": "the experiments perf test checks every event of the run was applied",
		"fabric.Fabric.delivered":                 "link-traversal counter the fabric tests assert on",
		"fabric.Fabric.hostRx":                    "host-delivery counter the fabric tests assert on",
		"history.Churn.AddedAt":                   "when a churned rule appeared: the history tests check each flap's lifetime",
		"history.Churn.RemovedAt":                 "when a churned rule vanished: the history tests check each flap's lifetime",
		"openflow.SecureConn.recvLost":            "replay-window counter the openflow transport tests assert on",
		"openflow.SecureConn.recvReplays":         "replay-window counter the openflow transport tests assert on",
		"rvaas.CompileStats.SwitchReuses":         "the rvaas compile-cache test checks per-switch reuse",
		"rvaas.SubscriptionStats.SessionResumes":  "the rvaas and experiments tests count session resumes",
		"verifier.SubState.Evaluated":             "the rvaas, experiments and verifier tests wait for a first evaluation",
	}
	allowedKnobs = map[string]string{}
)

var (
	loadOnce sync.Once
	loaded   *program
	repo     []finding
	loadErr  error
)

// repoFindings type-checks the repository once for every test of the
// package, and applies the rules to the packages under declRoots.
func repoFindings(t *testing.T) (*program, []finding) {
	t.Helper()
	loadOnce.Do(func() {
		abs, err := filepath.Abs(root)
		if err != nil {
			loadErr = err
			return
		}
		loaded, loadErr = loadModules(abs, filepath.Join(abs, "bench"))
		if loadErr != nil {
			return
		}
		repo = findings(loaded, collect(loaded), abs, func(p *pkg) bool {
			rel, err := filepath.Rel(abs, p.dir)
			return err == nil && slices.Contains(declRoots, strings.Split(filepath.ToSlash(rel), "/")[0])
		})
	})
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	if len(repo) == 0 {
		t.Fatal("no findings at all: the guard did not reach the source tree")
	}
	return loaded, repo
}

// TestGuardFixture runs the rules on testdata/fixture, which plants a case
// each rule must report beside one it must not. Loosening a rule drops a
// wanted finding; breaking one adds an unwanted finding.
func TestGuardFixture(t *testing.T) {
	prog, _ := repoFindings(t)
	dir := filepath.Join("testdata", "fixture")
	fx := &program{fset: prog.fset, imp: prog.imp}
	if err := fx.check("fixture", dir, []string{"fixture.go"}); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings(fx, collect(fx), dir, func(*pkg) bool { return true }) {
		got = append(got, f.key+": "+f.rule)
	}
	want := []string{
		"fixture.circle.Perimeter: " + ruleCaller,
		"fixture.names.Reset: " + ruleCaller,
		"fixture.gauge.Add: " + ruleCaller,
		"fixture.countdown: " + ruleCaller,
		"fixture.mark.glyph: " + ruleRead,
		"fixture.pair.y: " + ruleRead,
		"fixture.entry.note: " + ruleRead,
		"fixture.Options.Width: " + ruleSet,
		"fixture.Options.Retries: " + ruleSet,
	}
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Errorf("fixture findings:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestEveryFunctionHasACaller fails on a top-level function or method under
// internal/ or cmd/ that no non-test code uses.
func TestEveryFunctionHasACaller(t *testing.T) {
	check(t, ruleCaller, allowedFuncs, "delete it, or move it into the package's export_test.go if only tests need it")
}

// TestEveryFieldIsRead fails on a struct field under internal/ or cmd/ that
// no non-test code reads.
func TestEveryFieldIsRead(t *testing.T) {
	check(t, ruleRead, allowedFields, "delete it and its writes")
}

// TestEveryKnobIsSet fails on a field of a *Config or *Options type that no
// non-test code sets: it has one value, so it is a constant.
func TestEveryKnobIsSet(t *testing.T) {
	check(t, ruleSet, allowedKnobs, "make it the constant it always is")
}

// check reports rule's findings that allowed does not name, and every
// allowlist entry that names none of them, so the list cannot outlive its
// reasons.
func check(t *testing.T, rule string, allowed map[string]string, fix string) {
	used := map[string]bool{}
	_, all := repoFindings(t)
	for _, f := range all {
		if f.rule != rule {
			continue
		}
		bare := f.key[strings.LastIndexByte(f.key, '.')+1:]
		switch {
		case allowed[f.key] != "":
			used[f.key] = true
		case f.owner != "" && allowed[f.owner] != "":
			used[f.owner] = true
		case allowed[bare] != "":
			used[bare] = true
		default:
			t.Errorf("%s %s: %s; %s", f.pos, f.key, rule, fix)
		}
	}
	for k, why := range allowed {
		if !used[k] {
			t.Errorf("allowlist entry %q (%s) matches no finding; remove it", k, why)
		}
	}
}
