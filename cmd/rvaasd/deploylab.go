package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/deploy"
	"repro/internal/labspec"
	"repro/internal/rvaas/admin"
)

// defaultAdminAddr is where `rvaasd deploy` serves the admin API and where
// `rvaasd ops` looks for it.
const defaultAdminAddr = "127.0.0.1:7171"

// runDeploy is the containerlab-style lab runner: parse and validate a
// declarative spec, bring the lab up (real UDP control channels when the
// spec says so), serve the admin API, and tear everything down in order on
// SIGINT/SIGTERM or after -run-for.
func runDeploy(args []string) error {
	fs := flag.NewFlagSet("rvaasd deploy", flag.ContinueOnError)
	topoPath := fs.String("topo", "", "lab spec file (YAML or JSON, required)")
	validate := fs.Bool("validate", false, "parse and validate the spec, print a summary, exit")
	reconfigure := fs.Bool("reconfigure", false, "discard the lab's persisted state (rvaas.persistPath) before deploying")
	adminAddr := fs.String("admin", defaultAdminAddr, "admin API listen address (empty disables)")
	runFor := fs.Duration("run-for", 0, "exit after this duration (0 = run until signal)")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "bound for ordered teardown")
	switchdBin := fs.String("switchd-bin", "", "switchd binary for local-exec placement groups (default: PATH lookup)")
	agentdBin := fs.String("agentd-bin", "", "agentd binary for local-exec placement groups (default: PATH lookup)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *topoPath == "" {
		return errors.New("rvaasd deploy: -topo <spec-file> is required")
	}
	spec, err := labspec.Load(*topoPath)
	if err != nil {
		return err
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if *validate {
		return printSpecSummary(spec)
	}
	if *reconfigure && spec.RVaaS.PersistPath != "" {
		if err := os.Remove(spec.RVaaS.PersistPath); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("rvaasd deploy: -reconfigure: %w", err)
		}
	}

	l, err := startLab(spec, *adminAddr, placedConfig(*switchdBin, *agentdBin))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "lab %q up: %d switches, %d access points, %d invariants, transport=%s\n",
		spec.Name, len(l.d.Topology.Switches()), len(l.d.Topology.AccessPoints()),
		len(spec.Invariants), transportName(spec))
	if p := l.d.Placed; p != nil {
		fmt.Fprintf(out, "process plane: trunk %s, attach %s\n", p.TrunkAddr(), p.AttachAddr())
	}
	if addr := l.adminAddr(); addr != "" {
		fmt.Fprintf(out, "admin API on http://%s (rvaasd ops -admin %s ...)\n", addr, addr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *runFor > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *runFor)
		defer cancel()
	}
	<-ctx.Done()
	stop() // a second signal during teardown kills the process the default way
	fmt.Fprintf(out, "shutting down (%v bound)...\n", *shutdownTimeout)
	if err := l.shutdown(*shutdownTimeout); err != nil {
		return err
	}
	fmt.Fprintln(out, "lab down")
	return nil
}

func transportName(spec *labspec.Spec) string {
	if spec.Transport.Kind == "" {
		return labspec.TransportInProc
	}
	return spec.Transport.Kind
}

// printSpecSummary is the -validate dry-run output: the built topology's
// shape plus the spec in canonical JSON.
func printSpecSummary(spec *labspec.Spec) error {
	topo, err := spec.Topology.Build()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "spec %q valid: %d switches, %d links, %d access points, routing=%s, transport=%s, %d invariants\n",
		spec.Name, len(topo.Switches()), len(topo.Links()), len(topo.AccessPoints()),
		routingName(spec), transportName(spec), len(spec.Invariants))
	canon, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", canon)
	return nil
}

func routingName(spec *labspec.Spec) string {
	if spec.Routing == "" {
		return "allpairs"
	}
	return spec.Routing
}

// lab is one running deployment plus its admin endpoint.
type lab struct {
	d   *deploy.Deployment
	srv *http.Server
	ln  net.Listener
}

// placedConfig builds the multi-process bring-up config: explicit child
// binaries when the operator pins them, PATH lookup otherwise, with child
// process output forwarded to the command's log stream.
func placedConfig(switchdBin, agentdBin string) deploy.PlacedConfig {
	return deploy.PlacedConfig{
		ChildCommand: func(kind string) []string {
			switch {
			case kind == "switchd" && switchdBin != "":
				return []string{switchdBin}
			case kind == "agentd" && agentdBin != "":
				return []string{agentdBin}
			}
			return nil // deploy default: PATH lookup
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(out, format+"\n", args...)
		},
	}
}

// startLab brings the spec's deployment up and, unless adminAddr is empty,
// serves the admin API on it. (Loopback, unauthenticated: an operator
// plane, not a tenant plane.)
func startLab(spec *labspec.Spec, adminAddr string, pc deploy.PlacedConfig) (*lab, error) {
	d, err := deploy.FromSpecPlaced(spec, pc)
	if err != nil {
		return nil, err
	}
	l := &lab{d: d}
	if adminAddr != "" {
		ln, err := net.Listen("tcp", adminAddr)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("rvaasd deploy: admin listener: %w", err)
		}
		l.ln = ln
		svc := admin.NewService(d.RVaaS)
		if d.Placed != nil {
			svc = svc.WithProcs(d.Placed.ProcHealth).WithFaults(d.Placed)
		}
		l.srv = &http.Server{Handler: admin.Handler(svc)}
		go l.srv.Serve(ln)
	}
	return l, nil
}

// adminAddr reports the bound admin address ("" when disabled).
func (l *lab) adminAddr() string {
	if l.ln == nil {
		return ""
	}
	return l.ln.Addr().String()
}

// shutdown tears the lab down in order — admin API first (stop accepting
// operator requests), then the deployment stages — bounded by timeout.
func (l *lab) shutdown(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var firstErr error
	if l.srv != nil {
		if err := l.srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			firstErr = fmt.Errorf("rvaasd: admin shutdown: %w", err)
		}
	}
	if err := l.d.Shutdown(ctx); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
