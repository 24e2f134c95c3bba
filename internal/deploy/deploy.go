// Package deploy wires a complete RVaaS deployment: a fabric built from a
// wiring plan, the provider's (compromisable) controller, a secured RVaaS
// controller attached to every switch over authenticated encrypted
// channels, and one client agent per access point. Examples, experiments
// and integration tests build deployments directly from a topology;
// operator tooling (cmd/rvaasd) builds them from a declarative lab spec
// via FromSpec.
package deploy

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/client"
	"repro/internal/controlplane"
	"repro/internal/enclave"
	"repro/internal/fabric"
	"repro/internal/headerspace"
	"repro/internal/labspec"
	"repro/internal/openflow"
	"repro/internal/rvaas"
	"repro/internal/topology"
	"repro/internal/wire"
)

// bringUpWorkers bounds concurrent switch bring-up (identity provisioning +
// secure-channel handshake + attach).
const bringUpWorkers = 8

// Options tunes a deployment.
type Options struct {
	// TenantRouting installs isolated per-tenant flows (with ingress-port
	// pinning) instead of the default all-pairs destination trees. Used by
	// the isolation case study.
	TenantRouting bool
	// PollInterval is the mean period of RVaaS's randomly timed active
	// polls (0 = no background poller).
	PollInterval time.Duration
	// AuthTimeout bounds per-query in-band authentication (0 = rvaas
	// default).
	AuthTimeout time.Duration
	// RecheckParallelism is the subscription re-check worker count
	// (<= 0 means GOMAXPROCS).
	RecheckParallelism int
	// Seed for RVaaS's poll-gap randomness.
	Seed int64
	// Clock injection for simulated-time experiments.
	Clock func() time.Time
	// SkipAgents skips client agent creation.
	SkipAgents bool
	// ManualRecheck disables the automatic subscription re-verification
	// worker (standing invariants are only re-checked via explicit
	// RecheckNow / RevalidateAll calls) — used by latency experiments.
	ManualRecheck bool
	// Persist durably stores the standing-invariant set; with it,
	// RestartRVaaS restores every subscription across a simulated
	// controller crash. The caller owns (and closes) the store.
	Persist rvaas.SubscriptionStore
	// AgentProtocol selects nothing: agents speak the one envelope
	// protocol. The field stays declared only because bench/rvbench (frozen
	// for this change) sets it to wire.EnvelopeVersion; New rejects any
	// other non-zero value. The next benchmark-archetype PR deletes it.
	AgentProtocol uint8
	// AgentResponseTimeout bounds each agent request awaiting its in-band
	// response (0 = client default).
	AgentResponseTimeout time.Duration
	// Transport selects the controller↔switch channel substrate:
	// labspec.TransportInProc (or "") for in-memory pipes,
	// labspec.TransportUDP for real loopback UDP sockets with the
	// loss-tolerant secure channel.
	Transport string
}

// Deployment is a running system.
type Deployment struct {
	Topology *topology.Topology
	Fabric   *fabric.Fabric
	Provider *controlplane.Controller
	RVaaS    *rvaas.Controller
	Platform *enclave.Platform
	CA       *openflow.CA
	// Agents maps client id -> agent (one per access point; when a client
	// has several access points the first wins).
	Agents map[uint64]*client.Agent
	// Placed is the multi-process runtime (trunk hub, attach listener,
	// child supervision); nil for single-process deployments.
	Placed *Placement

	opt Options
	// ownedStore is a persistence store opened by FromSpec on the
	// deployment's behalf (nil when the caller supplied Options.Persist).
	ownedStore io.Closer
}

func (opt Options) rvaasConfig(topo *topology.Topology, platform *enclave.Platform, seedBump int64) rvaas.Config {
	return rvaas.Config{
		Topology:           topo,
		Platform:           platform,
		PollInterval:       opt.PollInterval,
		AuthTimeout:        opt.AuthTimeout,
		Seed:               opt.Seed + seedBump,
		Clock:              opt.Clock,
		ManualRecheck:      opt.ManualRecheck,
		RecheckParallelism: opt.RecheckParallelism,
		Persist:            opt.Persist,
	}
}

// installRouting programs the provider's routes: isolated per-tenant flows
// with TenantRouting, all-pairs destination trees otherwise.
func (opt Options) installRouting(provider *controlplane.Controller) error {
	install := provider.InstallAllPairs
	if opt.TenantRouting {
		install = provider.InstallTenantRouting
	}
	if err := install(); err != nil {
		return fmt.Errorf("deploy: install routing: %w", err)
	}
	return nil
}

// connectPair builds one secured controller↔switch channel pair over the
// configured transport. The first conn is the controller end.
func (opt Options) connectPair(ctlID *openflow.Identity, ctlCert openflow.Certificate, swIdent *openflow.Identity, swCert openflow.Certificate, ca *openflow.CA) (*openflow.SecureConn, *openflow.SecureConn, error) {
	switch opt.Transport {
	case "", labspec.TransportInProc:
		return openflow.ConnectSecure(ctlID, ctlCert, swIdent, swCert, ca.Pub)
	case labspec.TransportUDP:
		rawCtl, rawSw, err := openflow.UDPPipe()
		if err != nil {
			return nil, nil, err
		}
		return openflow.ConnectSecureOver(rawCtl, rawSw, ctlID, ctlCert, swIdent, swCert, ca.Pub)
	}
	return nil, nil, fmt.Errorf("deploy: unknown transport %q", opt.Transport)
}

// attachSwitches provisions an identity for every switch and brings its
// secure control channel up (handshake, Serve, Attach with initial sync),
// fanning the bring-up across at most bringUpWorkers workers of the one
// worker pool (headerspace.PoolRun). Switch bring-ups are independent;
// every one is waited for so the caller can tear down safely, and the
// first error in switch order wins.
func attachSwitches(topo *topology.Topology, fab *fabric.Fabric, ctl *rvaas.Controller, ca *openflow.CA, ctlID *openflow.Identity, ctlCert openflow.Certificate, opt Options) error {
	return attachSwitchList(topo.Switches(), fab, ctl, ca, ctlID, ctlCert, opt)
}

// attachSwitchList is attachSwitches over an explicit switch subset —
// placed deployments bring only their in-process share up this way, the
// rest attach over the network.
func attachSwitchList(switches []topology.SwitchID, fab *fabric.Fabric, ctl *rvaas.Controller, ca *openflow.CA, ctlID *openflow.Identity, ctlCert openflow.Certificate, opt Options) error {
	errs := make([]error, len(switches))
	headerspace.PoolRun(len(switches), bringUpWorkers, func(i int) {
		errs[i] = attachSwitch(switches[i], fab, ctl, ca, ctlID, ctlCert, opt)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// attachSwitch brings one switch's secure control channel up.
func attachSwitch(swID topology.SwitchID, fab *fabric.Fabric, ctl *rvaas.Controller, ca *openflow.CA, ctlID *openflow.Identity, ctlCert openflow.Certificate, opt Options) error {
	swIdent, err := openflow.NewIdentity(fmt.Sprintf("switch-%d", swID))
	if err != nil {
		return err
	}
	ctlConn, swConn, err := opt.connectPair(ctlID, ctlCert, swIdent, ca.Issue(swIdent), ca)
	if err != nil {
		return fmt.Errorf("deploy: secure channel to %d: %w", swID, err)
	}
	if err := fab.Switch(swID).Serve(swConn); err != nil {
		ctlConn.Close()
		swConn.Close()
		return err
	}
	if err := ctl.Attach(swID, ctlConn); err != nil {
		return fmt.Errorf("deploy: attach %d: %w", swID, err)
	}
	return nil
}

// New builds and starts a deployment on the given wiring plan.
func New(topo *topology.Topology, opt Options) (*Deployment, error) {
	if opt.AgentProtocol != 0 && opt.AgentProtocol != wire.EnvelopeVersion {
		return nil, fmt.Errorf("deploy: agent protocol v%d was removed; agents speak envelope v%d",
			opt.AgentProtocol, wire.EnvelopeVersion)
	}
	fab, err := fabric.New(topo)
	if err != nil {
		return nil, err
	}
	provider := controlplane.New(fab)
	if err := opt.installRouting(provider); err != nil {
		fab.Close()
		return nil, err
	}

	platform, err := enclave.NewPlatform()
	if err != nil {
		fab.Close()
		return nil, err
	}
	ctl, err := rvaas.New(opt.rvaasConfig(topo, platform, 0))
	if err != nil {
		fab.Close()
		return nil, err
	}

	// PKI: the infrastructure owner's CA provisions switch certificates and
	// the RVaaS controller certificate (paper §III).
	ca, err := openflow.NewCA()
	if err != nil {
		fab.Close()
		return nil, err
	}
	ctlID, err := openflow.NewIdentity("rvaas")
	if err != nil {
		fab.Close()
		return nil, err
	}
	if err := attachSwitches(topo, fab, ctl, ca, ctlID, ca.Issue(ctlID), opt); err != nil {
		ctl.Close()
		fab.Close()
		return nil, err
	}

	d := &Deployment{
		Topology: topo,
		Fabric:   fab,
		Provider: provider,
		RVaaS:    ctl,
		Platform: platform,
		CA:       ca,
		Agents:   make(map[uint64]*client.Agent),
		opt:      opt,
	}
	if !opt.SkipAgents {
		if err := d.createAgents(d.Fabric, nil, d.Fabric.AttachHost); err != nil {
			d.Close()
			return nil, err
		}
	}
	ctl.Start()
	return d, nil
}

// FromSpec validates a lab spec and brings the lab it declares up: the
// topology (generated or explicitly wired), the declared routing mode,
// RVaaS tuning, channel transport, client agents — and every spec invariant
// registered through the owning client's agent over the real in-band
// subscribe path, so a deployed lab starts with its standing invariants
// already under verification.
func FromSpec(spec *labspec.Spec) (*Deployment, error) {
	return FromSpecPlaced(spec, PlacedConfig{})
}

// multiProcess reports whether the spec places any group outside the
// controller process.
func multiProcess(spec *labspec.Spec) bool {
	if spec.Placement == nil {
		return false
	}
	for _, g := range spec.Placement.Groups {
		if g.Proc != labspec.ProcInProc {
			return true
		}
	}
	return false
}

// FromSpecPlaced is FromSpec with multi-process bring-up configuration.
// Specs whose placement section puts groups in local-exec or external
// processes come up as placed labs: child processes (or externally
// launched ones) host their switches and agents, joined over the trunk,
// with switch control channels on the UDP attach listener. Specs without
// such a placement behave exactly as FromSpec.
func FromSpecPlaced(spec *labspec.Spec, pc PlacedConfig) (*Deployment, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	opt := Options{
		TenantRouting:        spec.Routing == "tenant",
		PollInterval:         spec.RVaaS.PollInterval.Std(),
		RecheckParallelism:   spec.RVaaS.RecheckParallelism,
		Seed:                 spec.RVaaS.Seed,
		SkipAgents:           spec.Agents.Skip,
		AgentResponseTimeout: spec.Agents.ResponseTimeout.Std(),
		Transport:            spec.Transport.Kind,
	}
	var owned io.Closer
	if spec.RVaaS.PersistPath != "" {
		store, err := rvaas.OpenFileStore(spec.RVaaS.PersistPath)
		if err != nil {
			return nil, fmt.Errorf("deploy: open persistence store: %w", err)
		}
		opt.Persist = store
		owned = store
	}
	var (
		d        *Deployment
		err      error
		placedAg map[uint64]string
	)
	if multiProcess(spec) {
		placedAg = spec.Placement.PlacedAgents()
		d, err = fromPlacedSpec(spec, opt, pc)
	} else {
		var topo *topology.Topology
		topo, err = spec.Topology.Build()
		if err == nil {
			d, err = New(topo, opt)
		}
	}
	if err != nil {
		if owned != nil {
			owned.Close()
		}
		return nil, err
	}
	d.ownedStore = owned
	for _, inv := range spec.Invariants {
		if _, placed := placedAg[inv.Client]; placed {
			// The hosting agentd registers this invariant itself over its
			// own in-band path after joining.
			continue
		}
		ag := d.Agent(inv.Client)
		if ag == nil {
			d.Close()
			return nil, fmt.Errorf("deploy: invariant for client %d: no agent (spec validated against a different topology?)", inv.Client)
		}
		kind, err := inv.WireKind()
		if err != nil {
			d.Close()
			return nil, err
		}
		constraints, err := inv.WireConstraints()
		if err != nil {
			d.Close()
			return nil, err
		}
		if _, err := ag.Subscribe(kind, constraints, inv.Param); err != nil {
			d.Close()
			return nil, fmt.Errorf("deploy: register %s invariant for client %d: %w", inv.Kind, inv.Client, err)
		}
	}
	return d, nil
}

// createAgents builds the agent of every client that runs in this process
// (elsewhere names the clients a placement hosts in other processes) and
// hands the receive path of each of its access points to attachHost. A
// client with several access points answers auth requests at each of them
// with the same identity key.
func (d *Deployment) createAgents(nic client.NIC, elsewhere map[uint64]string, attachHost func(topology.Endpoint, fabric.HostHandler) error) error {
	trust := client.TrustAnchors{
		PlatformRoot: d.Platform.RootKey(),
		Measurement:  rvaas.Measurement(),
	}
	for _, ap := range d.Topology.AccessPoints() {
		if _, ok := elsewhere[ap.ClientID]; ok {
			continue
		}
		ag, exists := d.Agents[ap.ClientID]
		if !exists {
			var err error
			ag, err = client.New(client.Config{
				ClientID:        ap.ClientID,
				Access:          ap,
				NIC:             nic,
				Trust:           trust,
				ResponseTimeout: d.opt.AgentResponseTimeout,
			})
			if err != nil {
				return err
			}
			ag.PinServerKey(d.RVaaS.PublicKey())
			d.RVaaS.RegisterClient(ap.ClientID, ag.PublicKey())
			d.Agents[ap.ClientID] = ag
		}
		if err := attachHost(ap.Endpoint, ag.HandlerFor(ap)); err != nil {
			return err
		}
	}
	return nil
}

// Agent returns the agent for a client id (nil if absent).
func (d *Deployment) Agent(id uint64) *client.Agent { return d.Agents[id] }

// RestartRVaaS simulates a controller crash and recovery: the running
// RVaaS instance is torn down and a fresh one launched on the same enclave
// platform and persistence store, re-attached to the LIVE fabric over new
// secure channels. With Options.Persist set, the new instance restores the
// full standing-invariant set and re-verifies it on its first recheck
// pass. Running agents keep their subscriptions; they re-pin the new
// enclave's signing key here, standing in for the attested key re-exchange
// a real client performs after noticing a restart.
func (d *Deployment) RestartRVaaS() error {
	if d.Placed != nil {
		return fmt.Errorf("deploy: RestartRVaaS is not supported for placed labs (placed switches hold live channels to the old instance)")
	}
	d.RVaaS.Close()
	ctl, err := rvaas.New(d.opt.rvaasConfig(d.Topology, d.Platform, 1))
	if err != nil {
		return fmt.Errorf("deploy: relaunch rvaas: %w", err)
	}
	ctlID, err := openflow.NewIdentity("rvaas-restarted")
	if err != nil {
		return err
	}
	if err := attachSwitches(d.Topology, d.Fabric, ctl, d.CA, ctlID, d.CA.Issue(ctlID), d.opt); err != nil {
		return err
	}
	for id, ag := range d.Agents {
		ag.PinServerKey(ctl.PublicKey())
		ctl.RegisterClient(id, ag.PublicKey())
	}
	d.RVaaS = ctl
	ctl.Start()
	return nil
}

// ReattachSwitch re-establishes one switch's secure control channel after a
// Detach — the single-switch "restart" adversarial campaigns exercise
// mid-batch. The switch keeps its flow table (the process survived; only
// the session dropped), and the re-attach's initial sync re-bases the wiped
// snapshot on the switch's authoritative state.
func (d *Deployment) ReattachSwitch(sw topology.SwitchID) error {
	if d.Placed != nil {
		return fmt.Errorf("deploy: ReattachSwitch is not supported for placed labs (the child process owns the channel)")
	}
	ctlID, err := openflow.NewIdentity("rvaas-reattach")
	if err != nil {
		return err
	}
	return attachSwitchList([]topology.SwitchID{sw}, d.Fabric, d.RVaaS, d.CA, ctlID, d.CA.Issue(ctlID), d.opt)
}

// Shutdown tears the deployment down in dependency order — client agents
// first (so no new in-band requests arrive), then the RVaaS controller
// (which detaches every switch session), then the fabric — with the whole
// teardown bounded by ctx. On ctx expiry the current stage keeps finishing
// in the background and Shutdown reports which stage was interrupted.
func (d *Deployment) Shutdown(ctx context.Context) error {
	type stageT struct {
		name string
		fn   func()
	}
	stages := []stageT{
		{"agents", func() {
			for _, ag := range d.Agents {
				ag.Close()
			}
		}},
	}
	if d.Placed != nil {
		// Process plane next: SIGTERM local children, grace, SIGKILL
		// stragglers; close the trunk so external processes exit too.
		stages = append(stages, stageT{"procs", func() { d.Placed.stop(ctx) }})
	}
	stages = append(stages, stageT{"rvaas", d.RVaaS.Close})
	if d.Placed != nil {
		stages = append(stages, stageT{"listeners", d.Placed.closeListeners})
	}
	stages = append(stages,
		stageT{"fabric", d.Fabric.Close},
		stageT{"persistence", func() {
			if d.ownedStore != nil {
				d.ownedStore.Close()
			}
		}},
	)
	for _, stage := range stages {
		done := make(chan struct{})
		go func(fn func()) {
			defer close(done)
			fn()
		}(stage.fn)
		select {
		case <-done:
		case <-ctx.Done():
			return fmt.Errorf("deploy: shutdown interrupted in %s stage: %w", stage.name, ctx.Err())
		}
	}
	return nil
}

// Close tears everything down (unbounded Shutdown).
func (d *Deployment) Close() { _ = d.Shutdown(context.Background()) }
