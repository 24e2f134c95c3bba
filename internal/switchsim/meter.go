package switchsim

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/openflow"
	"repro/internal/wire"
)

// Meter support: token-bucket rate limiters flow entries reference via
// MeterID. The paper's neutrality discussion covers verifying "whether
// allocated routes and meter tables meet network neutrality requirements"
// (§IV-C); the meter table is part of the state RVaaS polls.

// meterState is one installed meter with its bucket.
type meterState struct {
	cfg        openflow.MeterConfig
	tokens     float64 // bytes
	lastRefill time.Time
}

// InstallMeterDirect installs (or replaces) a meter, bypassing the control
// channel (provider/attack path).
func (s *Switch) InstallMeterDirect(cfg openflow.MeterConfig) {
	_ = s.applyMeterMod(&openflow.MeterMod{Command: openflow.MeterAdd, Config: cfg})
}

// RemoveMeterDirect removes a meter by id.
func (s *Switch) RemoveMeterDirect(meterID uint32) {
	_ = s.applyMeterMod(&openflow.MeterMod{
		Command: openflow.MeterDelete,
		Config:  openflow.MeterConfig{MeterID: meterID},
	})
}

// applyMeterMod refuses a meter beyond the count a StatsReply can carry.
func (s *Switch) applyMeterMod(m *openflow.MeterMod) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.meters == nil {
		s.meters = make(map[uint32]*meterState)
	}
	switch m.Command {
	case openflow.MeterAdd:
		if _, ok := s.meters[m.Config.MeterID]; !ok && len(s.meters) >= wire.MaxCount {
			return fmt.Errorf("meter table full: %d meters", len(s.meters))
		}
		s.meters[m.Config.MeterID] = &meterState{
			cfg:        m.Config,
			tokens:     float64(m.Config.BurstKB) * 1024,
			lastRefill: s.clock(),
		}
	case openflow.MeterDelete:
		delete(s.meters, m.Config.MeterID)
	}
	// Meter changes bump the table sequence so monitors resync and polls
	// see a fresh snapshot id.
	s.seq++
	return nil
}

func (s *Switch) metersLocked() []openflow.MeterConfig {
	out := make([]openflow.MeterConfig, 0, len(s.meters))
	for _, ms := range s.meters {
		out = append(out, ms.cfg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MeterID < out[j].MeterID })
	return out
}

// meterAllowsLocked refills the bucket and charges the packet; false means
// the packet exceeds the rate and is dropped. Callers hold s.mu.
func (s *Switch) meterAllowsLocked(meterID uint32, pkt *wire.Packet) bool {
	ms, ok := s.meters[meterID]
	if !ok {
		// Referencing a missing meter drops (fail closed, like OF 1.3).
		return false
	}
	now := s.clock()
	elapsed := now.Sub(ms.lastRefill).Seconds()
	if elapsed > 0 {
		ms.tokens += elapsed * float64(ms.cfg.RateKbps) * 125 // kbit/s -> B/s
		max := float64(ms.cfg.BurstKB) * 1024
		if ms.tokens > max {
			ms.tokens = max
		}
		ms.lastRefill = now
	}
	size := float64(len(pkt.Payload) + 42) // L2-L4 header estimate
	if ms.tokens < size {
		s.stats.MeterDrops++
		return false
	}
	ms.tokens -= size
	return true
}
