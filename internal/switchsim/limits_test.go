package switchsim

import (
	"reflect"
	"testing"

	"repro/internal/openflow"
	"repro/internal/wire"
)

// A switch never holds a list its reports' 16-bit counts cannot carry: a
// report clamped at wire.MaxCount would hide the rest from the verifier.

func TestSwitchRefusesUnreportableEntry(t *testing.T) {
	sw := New(1, 4, nil)
	entry := func(n int) openflow.FlowEntry {
		e := openflow.FlowEntry{Priority: 10, Match: openflow.Match{InPort: openflow.AnyPort}}
		for i := 0; i < n; i++ {
			e.Actions = append(e.Actions, openflow.Output(uint32(i%4+1)))
		}
		return e
	}
	if err := sw.ApplyFlowMod(&openflow.FlowMod{Command: openflow.FlowAdd, Entry: entry(wire.MaxCount + 1)}); err == nil {
		t.Fatalf("an entry with %d actions was accepted", wire.MaxCount+1)
	}
	if n := len(sw.Table()); n != 0 {
		t.Fatalf("refused entry left %d entries in the table", n)
	}

	// The largest entry a report can carry is installed and reported whole.
	if err := sw.ApplyFlowMod(&openflow.FlowMod{Command: openflow.FlowAdd, Entry: entry(wire.MaxCount)}); err != nil {
		t.Fatal(err)
	}
	got := sw.Table()[0]
	m, _, err := openflow.Decode(openflow.Encode(&openflow.FlowMonitorReply{Kind: openflow.FlowEventAdded, Entry: got, Seq: 7}))
	if err != nil {
		t.Fatal(err)
	}
	if back := m.(*openflow.FlowMonitorReply); back.Seq != 7 || !reflect.DeepEqual(back.Entry, got) {
		t.Fatalf("report of a %d-action entry came back with %d actions, seq %d", wire.MaxCount, len(back.Entry.Actions), back.Seq)
	}

	// Modifying an entry to an unreportable action list is refused too.
	if err := sw.ApplyFlowMod(&openflow.FlowMod{Command: openflow.FlowModify, Entry: entry(wire.MaxCount + 1)}); err == nil {
		t.Fatal("a modify to an unreportable action list was accepted")
	}
	if n := len(sw.Table()[0].Actions); n != wire.MaxCount {
		t.Fatalf("refused modify changed the entry to %d actions", n)
	}
}

func TestSwitchRefusesUnreportableMeters(t *testing.T) {
	sw := New(7, 4, nil)
	for id := uint32(1); id <= wire.MaxCount; id++ {
		sw.InstallMeterDirect(openflow.MeterConfig{MeterID: id, RateKbps: 1, BurstKB: 1})
	}
	conn := controllerHarness(t, sw)
	recvType(t, conn, openflow.TypeHello)
	if err := conn.Send(&openflow.MeterMod{XID: 3, Command: openflow.MeterAdd,
		Config: openflow.MeterConfig{MeterID: wire.MaxCount + 1, RateKbps: 1, BurstKB: 1}}); err != nil {
		t.Fatal(err)
	}
	if em := recvType(t, conn, openflow.TypeError).(*openflow.ErrorMsg); em.XID != 3 {
		t.Fatalf("error reply for xid %d, want 3", em.XID)
	}
	if n := len(sw.Meters()); n != wire.MaxCount {
		t.Fatalf("switch holds %d meters, want %d", n, wire.MaxCount)
	}
	// Replacing an installed meter at the limit still works.
	sw.InstallMeterDirect(openflow.MeterConfig{MeterID: 1, RateKbps: 9, BurstKB: 1})
	if ms := sw.Meters(); len(ms) != wire.MaxCount || ms[0].RateKbps != 9 {
		t.Fatalf("replace at the limit: %d meters, first %+v", len(ms), ms[0])
	}
}
