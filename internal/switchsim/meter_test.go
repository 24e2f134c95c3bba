package switchsim

import (
	"testing"
	"time"

	"repro/internal/openflow"
	"repro/internal/wire"
)

func meteredEntry(dst uint32, out, meterID uint32) openflow.FlowEntry {
	e := fwdEntry(10, dst, out)
	e.MeterID = meterID
	return e
}

func TestMeterDropsOverRate(t *testing.T) {
	now := clockBase
	col := newCollector()
	sw := New(1, 4, col.transmit)
	sw.SetClock(clockAt(&now))
	dst := wire.IPv4(10, 0, 1, 1)
	// 8 kbit/s = 1000 B/s; burst 1 KB.
	sw.InstallMeterDirect(openflow.MeterConfig{MeterID: 5, RateKbps: 8, BurstKB: 1})
	sw.InstallDirect(meteredEntry(dst, 2, 5))

	pkt := udpTo(dst)
	pkt.Payload = make([]byte, 458) // 500 B with header estimate
	// Burst allows two packets, then the bucket is dry.
	for i := 0; i < 5; i++ {
		sw.ProcessPacket(1, pkt, 0)
	}
	if got := col.count(2); got != 2 {
		t.Errorf("forwarded %d packets, want 2 (burst)", got)
	}
	if sw.Stats().MeterDrops != 3 {
		t.Errorf("meter drops = %d, want 3", sw.Stats().MeterDrops)
	}

	// After one second the bucket refills with 1000 bytes: two more.
	now = now.Add(time.Second)
	for i := 0; i < 5; i++ {
		sw.ProcessPacket(1, pkt, 0)
	}
	if got := col.count(2); got != 4 {
		t.Errorf("forwarded %d packets after refill, want 4", got)
	}
}

func TestMeterMissingFailsClosed(t *testing.T) {
	col := newCollector()
	sw := New(1, 4, col.transmit)
	dst := wire.IPv4(10, 0, 1, 1)
	sw.InstallDirect(meteredEntry(dst, 2, 77)) // meter 77 never installed
	sw.ProcessPacket(1, udpTo(dst), 0)
	if col.count(2) != 0 {
		t.Error("packet forwarded through missing meter")
	}
}

func TestMeterRemoval(t *testing.T) {
	col := newCollector()
	sw := New(1, 4, col.transmit)
	dst := wire.IPv4(10, 0, 1, 1)
	sw.InstallMeterDirect(openflow.MeterConfig{MeterID: 5, RateKbps: 1000000, BurstKB: 1000})
	sw.InstallDirect(meteredEntry(dst, 2, 5))
	sw.ProcessPacket(1, udpTo(dst), 0)
	if col.count(2) != 1 {
		t.Fatal("high-rate meter blocked traffic")
	}
	sw.RemoveMeterDirect(5)
	if len(sw.Meters()) != 0 {
		t.Error("meter still listed after removal")
	}
	// Entry now references a missing meter: fail closed.
	sw.ProcessPacket(1, udpTo(dst), 0)
	if col.count(2) != 1 {
		t.Error("packet forwarded after meter removal")
	}
}

func TestMeterInStatsReply(t *testing.T) {
	sw := New(7, 4, nil)
	conn := controllerHarness(t, sw)
	recvType(t, conn, openflow.TypeHello)
	// Install a meter via the control channel.
	if err := conn.Send(&openflow.MeterMod{
		XID: 1, Command: openflow.MeterAdd,
		Config: openflow.MeterConfig{MeterID: 9, RateKbps: 512, BurstKB: 64},
	}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&openflow.StatsRequest{XID: 2}); err != nil {
		t.Fatal(err)
	}
	reply, ok := recvType(t, conn, openflow.TypeStatsReply).(*openflow.StatsReply)
	if !ok {
		t.Fatal("not a stats reply")
	}
	if len(reply.Meters) != 1 || reply.Meters[0].MeterID != 9 || reply.Meters[0].RateKbps != 512 {
		t.Errorf("meters in stats: %+v", reply.Meters)
	}
}
