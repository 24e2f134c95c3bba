// Command attacksim is the adversarial harness: it drives seeded randomized
// attack/churn campaigns against a full in-process lab while a trusted
// oracle controller replays the identical committed event stream on the
// slow exhaustive recheck path, differentially checking every verdict
// (internal/campaign):
//
//	attacksim run -seed 7 -steps 40                 seeded campaign, print outcome
//	attacksim run -spec lab.yml -save out.json      campaign from a spec's campaign: section
//	attacksim run -admin 127.0.0.1:7788 ...         serve the admin API (GET /v1/campaign) while running
//	attacksim replay testdata/campaigns/x.json      replay an artifact, check its expectation
//	attacksim shrink -in fail.json -out min.json    ddmin a diverging trace to a 1-minimal reproducer
//
// The paper's adversarial evaluation (E4 detection matrices, E5 flap sweep)
// is printed by `benchharness -only e4,e5`.
//
// Exit codes: 0 clean, 1 engine/lab failure, 2 usage, 3 divergence (run) or
// failed expectation (replay).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"

	"repro/internal/campaign"
	"repro/internal/deploy"
	"repro/internal/labspec"
	"repro/internal/rvaas/admin"
)

const (
	exitFailure = 1
	exitUsage   = 2
	exitDiverge = 3
)

func main() {
	err := usageErr("usage: attacksim run|replay|shrink [flags] (see `go doc ./cmd/attacksim`)")
	if len(os.Args) > 1 {
		switch verb, rest := os.Args[1], os.Args[2:]; verb {
		case "run":
			err = runCampaign(rest)
		case "replay":
			err = runReplay(rest)
		case "shrink":
			err = runShrink(rest)
		default:
			err = usageErr("attacksim: unknown verb %q (want run, replay or shrink)", verb)
		}
	}
	if err != nil {
		log.Print(err)
		os.Exit(codeOf(err))
	}
}

// usageError marks CLI misuse (exit 2); divergeError marks a caught
// divergence or failed expectation (exit 3) so scripts can branch.
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

func usageErr(format string, args ...any) error {
	return &usageError{msg: fmt.Sprintf(format, args...)}
}

type divergeError struct{ msg string }

func (e *divergeError) Error() string { return e.msg }

func codeOf(err error) int {
	switch err.(type) {
	case *usageError:
		return exitUsage
	case *divergeError:
		return exitDiverge
	}
	return exitFailure
}

// runCampaign is `attacksim run`: execute one seeded campaign (from flags
// or a spec's campaign: section) with live progress on stderr, optionally
// serving the admin API and saving the outcome as a replayable artifact.
func runCampaign(args []string) error {
	fs := flag.NewFlagSet("attacksim run", flag.ContinueOnError)
	spec := fs.String("spec", "", "lab spec with a campaign: section (overrides the shape flags)")
	seed := fs.Int64("seed", 1, "campaign seed")
	steps := fs.Int("steps", 40, "campaign length in actions")
	topoKind := fs.String("topo", "linear", "lab topology kind: linear, ring, star, grid, fattree")
	size := fs.Int("size", 6, "topology size (switches; grid rows, fat-tree arity)")
	subscribers := fs.Int("subscribers", 8, "standing invariants registered up front")
	lie := fs.Int("lie", 0, "inject the Byzantine verdict-stream lie at this step (0 = none)")
	save := fs.String("save", "", "save the executed campaign as a replayable artifact (JSON)")
	adminAddr := fs.String("admin", "", "serve the admin API here while the campaign runs (GET /v1/campaign)")
	quiet := fs.Bool("q", false, "suppress per-step progress")
	if err := fs.Parse(args); err != nil {
		return usageErr("attacksim run: %v", err)
	}

	var cfg campaign.Config
	if *spec != "" {
		doc, err := labspec.Load(*spec)
		if err != nil {
			return err
		}
		if cfg, err = campaign.FromSpec(doc); err != nil {
			return err
		}
	} else {
		cfg = campaign.Config{
			Topo:        campaign.Topo{Kind: *topoKind, A: *size},
			Seed:        *seed,
			Steps:       *steps,
			Subscribers: *subscribers,
			LieStep:     *lie,
		}
	}
	if !*quiet {
		cfg.Logf = func(format string, a ...any) { log.Printf(format, a...) }
	}

	eng := campaign.New(cfg)
	if *adminAddr != "" {
		srv, err := serveAdmin(*adminAddr, eng)
		if err != nil {
			return err
		}
		defer srv.Close()
		cfg.OnLab = srv.onLab
		eng = campaign.New(cfg) // rebuild with the hook attached
		srv.eng = eng
	}

	res, err := eng.Run()
	if err != nil {
		return err
	}
	printResult(res)
	if *save != "" {
		if err := saveArtifact(*save, cfg, res); err != nil {
			return err
		}
		fmt.Printf("saved artifact: %s\n", *save)
	}
	if res.Divergence != nil {
		return &divergeError{msg: "attacksim run: campaign diverged (exit 3)"}
	}
	return nil
}

// runReplay is `attacksim replay <artifact...>`: re-execute graduated
// reproducers and verify each recorded expectation.
func runReplay(args []string) error {
	fs := flag.NewFlagSet("attacksim replay", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return usageErr("attacksim replay: %v", err)
	}
	if fs.NArg() == 0 {
		return usageErr("attacksim replay: want one or more artifact files")
	}
	failed := 0
	for _, path := range fs.Args() {
		art, err := campaign.LoadArtifact(path)
		if err != nil {
			return err
		}
		res, err := art.Check()
		if err != nil {
			fmt.Printf("FAIL %-30s %v\n", art.Name, err)
			failed++
			continue
		}
		outcome := "clean"
		if res.Divergence != nil {
			outcome = fmt.Sprintf("%s divergence at step %d (as expected)",
				res.Divergence.Kind, res.Divergence.Step)
		}
		fmt.Printf("ok   %-30s %d action(s), %d event(s), %s\n",
			art.Name, len(art.Actions), res.Events, outcome)
	}
	if failed > 0 {
		return &divergeError{msg: fmt.Sprintf("attacksim replay: %d artifact(s) failed their expectation", failed)}
	}
	return nil
}

// runShrink is `attacksim shrink`: ddmin a diverging artifact's trace to a
// 1-minimal reproducer and save it.
func runShrink(args []string) error {
	fs := flag.NewFlagSet("attacksim shrink", flag.ContinueOnError)
	in := fs.String("in", "", "diverging campaign artifact to minimize")
	out := fs.String("out", "", "write the minimal reproducer here (default: overwrite -in)")
	quiet := fs.Bool("q", false, "suppress shrink progress")
	if err := fs.Parse(args); err != nil {
		return usageErr("attacksim shrink: %v", err)
	}
	if *in == "" {
		return usageErr("attacksim shrink: -in is required")
	}
	if *out == "" {
		*out = *in
	}
	art, err := campaign.LoadArtifact(*in)
	if err != nil {
		return err
	}
	orig := len(art.Actions)
	cfg := art.Config()
	if !*quiet {
		cfg.Logf = func(format string, a ...any) { log.Printf(format, a...) }
	}
	min, res, err := campaign.Shrink(cfg, art.Actions)
	if err != nil {
		return err
	}
	art.Actions = min
	art.Expect = campaign.ExpectDivergence
	art.ExpectKind = res.Divergence.Kind
	if err := art.Save(*out); err != nil {
		return err
	}
	fmt.Printf("shrunk %d -> %d action(s); minimal reproducer saved: %s\n",
		orig, len(min), *out)
	fmt.Printf("divergence: %s\n", res.Divergence)
	return nil
}

// adminServer mounts the operator-plane admin API on the campaign's primary
// controller once the lab is up, with the campaign engine's live status at
// GET /v1/campaign.
type adminServer struct {
	ln  net.Listener
	eng *campaign.Engine
}

func serveAdmin(addr string, eng *campaign.Engine) (*adminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("attacksim: admin listen: %w", err)
	}
	log.Printf("admin API on http://%s (try: rvaasd ops campaign -admin %s)", ln.Addr(), ln.Addr())
	return &adminServer{ln: ln, eng: eng}, nil
}

func (s *adminServer) onLab(d *deploy.Deployment) {
	svc := admin.NewService(d.RVaaS).WithCampaign(func() admin.CampaignView {
		return campaignView(s.eng.Status())
	})
	go func() { _ = http.Serve(s.ln, admin.Handler(svc)) }()
}

func (s *adminServer) Close() { _ = s.ln.Close() }

// campaignView maps the engine's status snapshot onto the admin wire shape.
func campaignView(st campaign.Status) admin.CampaignView {
	view := admin.CampaignView{
		Running: st.Running, Seed: st.Seed,
		Step: st.Step, Steps: st.Steps, LastAction: st.LastAction,
		Events: st.Events, Transitions: st.Transitions,
		Diverged: st.Diverged, Fingerprint: st.Fingerprint,
		StaleGreenMax: st.StaleGreenMax,
	}
	if st.Divergence != nil {
		view.Divergence = &admin.CampaignDivergenceView{
			Step: st.Divergence.Step, Action: st.Divergence.Action,
			Kind: st.Divergence.Kind, Detail: st.Divergence.Detail,
		}
	}
	return view
}

func printResult(res *campaign.Result) {
	fmt.Printf("campaign: %d step(s), %d event(s), %d transition(s)\n",
		res.Steps, res.Events, res.Transitions)
	fmt.Printf("fingerprint: %s\n", res.Fingerprint)
	if res.StaleGreenMax > 0 {
		fmt.Printf("stale-green max window: %s\n", res.StaleGreenMax)
	}
	if res.Divergence != nil {
		fmt.Printf("DIVERGED: %s\n", res.Divergence)
	} else {
		fmt.Println("no divergence: primary and trusted oracle agree on every stream")
	}
}

func saveArtifact(path string, cfg campaign.Config, res *campaign.Result) error {
	art := &campaign.Artifact{
		Name:        strings.TrimSuffix(strings.TrimSuffix(path, ".json"), "/"),
		Seed:        cfg.Seed,
		Topology:    cfg.Topo,
		Subscribers: cfg.Subscribers,
		Expect:      campaign.ExpectClean,
		Actions:     res.Actions,
	}
	if i := strings.LastIndexByte(art.Name, '/'); i >= 0 {
		art.Name = art.Name[i+1:]
	}
	if res.Divergence != nil {
		art.Expect = campaign.ExpectDivergence
		art.ExpectKind = res.Divergence.Kind
	}
	return art.Save(path)
}
