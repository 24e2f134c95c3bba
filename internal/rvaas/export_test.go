package rvaas

import (
	"repro/internal/openflow"
	"repro/internal/topology"
)

// replaceTable installs a full-table snapshot, as an active poll does.
func (s *snapshotStore) replaceTable(sw topology.SwitchID, entries []openflow.FlowEntry, ports []uint32, seq uint64) {
	s.replaceState(sw, entries, ports, nil, seq, false)
}
