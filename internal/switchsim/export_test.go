package switchsim

import (
	"time"

	"repro/internal/openflow"
)

// SetClock injects a time source, so meter refills follow simulated time.
func (s *Switch) SetClock(clock func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock = clock
}

var clockBase = time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)

func clockAt(t *time.Time) func() time.Time {
	return func() time.Time { return *t }
}

// Stats returns a copy of the counters.
func (s *Switch) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.TableOccupancy = len(s.table)
	return st
}

// Meters returns the configured meters sorted by id.
func (s *Switch) Meters() []openflow.MeterConfig {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metersLocked()
}

// sessionCount reports the controller sessions the switch still serves.
func (s *Switch) sessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}
