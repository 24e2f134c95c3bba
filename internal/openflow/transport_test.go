package openflow

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
)

func transportPKI(t *testing.T) (*CA, *Identity, Certificate, *Identity, Certificate) {
	t.Helper()
	ca, err := NewCA()
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewIdentity("controller")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewIdentity("switch-1")
	if err != nil {
		t.Fatal(err)
	}
	return ca, ctl, ca.Issue(ctl), sw, ca.Issue(sw)
}

func TestUDPSecureHandshakeAndExchange(t *testing.T) {
	ca, ctl, ctlCert, sw, swCert := transportPKI(t)

	ta, tb, err := UDPPipe()
	if err != nil {
		t.Fatal(err)
	}
	connA, connB, err := ConnectSecureOver(ta, tb, ctl, ctlCert, sw, swCert, ca.Pub)
	if err != nil {
		t.Fatalf("handshake over udp: %v", err)
	}
	defer connA.Close()
	defer connB.Close()

	if got := connA.PeerName(); got != "switch-1" {
		t.Fatalf("peer name = %q, want switch-1", got)
	}
	if got := connB.PeerName(); got != "controller" {
		t.Fatalf("peer name = %q, want controller", got)
	}

	// Full-duplex message exchange over real sockets.
	const rounds = 50
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			m, err := connB.Recv()
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			hello, ok := m.(*Hello)
			if !ok || hello.XID != uint32(i) {
				t.Errorf("recv %d: got %#v", i, m)
				return
			}
			if err := connB.Send(&EchoReply{XID: uint32(i)}); err != nil {
				t.Errorf("reply %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		if err := connA.Send(&Hello{XID: uint32(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		m, err := connA.Recv()
		if err != nil {
			t.Fatalf("recv reply %d: %v", i, err)
		}
		if rep, ok := m.(*EchoReply); !ok || rep.XID != uint32(i) {
			t.Fatalf("reply %d: got %#v", i, m)
		}
	}
	wg.Wait()
	if lost, _ := recvCounters(connA); lost != 0 {
		t.Fatalf("loopback exchange recorded %d lost frames", lost)
	}
}

func TestUDPTransportPeerFiltering(t *testing.T) {
	ta, tb, err := UDPPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	defer tb.Close()

	// An off-path socket spraying datagrams at b must not surface in Recv.
	intruder, _, err := UDPPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer intruder.Close()
	intruder.peer = tb.LocalAddr()
	if err := intruder.Send([]byte("off-path noise")); err != nil {
		t.Fatal(err)
	}
	if err := ta.Send([]byte("legit")); err != nil {
		t.Fatal(err)
	}
	got, err := tb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "legit" {
		t.Fatalf("recv = %q, want the legit datagram (off-path one filtered)", got)
	}
}

func TestUDPTransportCloseUnblocksRecv(t *testing.T) {
	ta, tb, err := UDPPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	done := make(chan error, 1)
	go func() {
		_, err := tb.Recv()
		done <- err
	}()
	tb.Close()
	if err := <-done; !errors.Is(err, io.EOF) {
		t.Fatalf("recv after close = %v, want EOF", err)
	}
	if err := tb.Send([]byte("x")); !errors.Is(err, ErrChannelClosed) {
		t.Fatalf("send after close = %v, want ErrChannelClosed", err)
	}
}

func TestUDPTransportMessageTooLarge(t *testing.T) {
	ta, tb, err := UDPPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	defer tb.Close()
	big := make([]byte, maxUDPMessage+1)
	if err := ta.Send(big); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("oversized send = %v, want ErrMessageTooLarge", err)
	}
	if sent, err := ta.TrySend(big); sent || err != nil {
		t.Fatalf("oversized trysend = (%v, %v), want (false, nil)", sent, err)
	}
}

// droppingTransport wraps a Transport and silently drops selected sends,
// simulating network loss on an otherwise reliable pipe.
type droppingTransport struct {
	Transport
	mu   sync.Mutex
	drop map[int]bool
	seq  int
}

func (d *droppingTransport) Lossy() bool { return true }

// dropNext numbers the next send and reports whether the network eats it.
func (d *droppingTransport) dropNext() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.seq
	d.seq++
	return d.drop[n]
}

func (d *droppingTransport) Send(data []byte) error {
	if d.dropNext() {
		return nil
	}
	return d.Transport.Send(data)
}

// TrySend drops like Send: SecureConn.Send offers every frame to TrySend
// first and only blocks in Send when the peer is full.
func (d *droppingTransport) TrySend(data []byte) (bool, error) {
	if d.dropNext() {
		return true, nil
	}
	return d.Transport.TrySend(data)
}

func TestSecureRecvTolerantOfLossOnLossyTransport(t *testing.T) {
	ca, ctl, ctlCert, sw, swCert := transportPKI(t)
	rawA, rawB := Pipe()
	// Drop frame index 3 (handshake sends are indexes 0–1 on this side:
	// round-1 and round-3 messages; data frames follow). The receiver side
	// is wrapped too so its secure channel knows the link is best-effort.
	lossA := &droppingTransport{Transport: rawA, drop: map[int]bool{3: true}}
	lossB := &droppingTransport{Transport: rawB, drop: map[int]bool{}}
	connA, connB, err := ConnectSecureOver(lossA, lossB, ctl, ctlCert, sw, swCert, ca.Pub)
	if err != nil {
		t.Fatal(err)
	}
	defer connA.Close()
	defer connB.Close()

	for i := 0; i < 4; i++ {
		if err := connA.Send(&Hello{XID: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Frame with counter 1 was dropped; the receiver must accept 0, 2, 3
	// and record one lost frame.
	want := []uint32{0, 2, 3}
	for _, v := range want {
		m, err := connB.Recv()
		if err != nil {
			t.Fatalf("recv after loss: %v", err)
		}
		if h, ok := m.(*Hello); !ok || h.XID != v {
			t.Fatalf("recv = %#v, want Hello xid=%d", m, v)
		}
	}
	if lost, _ := recvCounters(connB); lost != 1 {
		t.Fatalf("lost = %d, want 1", lost)
	}
}

func TestSecureRecvStillRejectsReplayOnLossyTransport(t *testing.T) {
	ca, ctl, ctlCert, sw, swCert := transportPKI(t)
	rawA, rawB := Pipe()
	lossA := &droppingTransport{Transport: rawA, drop: map[int]bool{}}
	lossB := &droppingTransport{Transport: rawB, drop: map[int]bool{}}
	connA, connB, err := ConnectSecureOver(lossA, lossB, ctl, ctlCert, sw, swCert, ca.Pub)
	if err != nil {
		t.Fatal(err)
	}
	defer connA.Close()
	defer connB.Close()

	// Capture a ciphertext and replay it after the receiver has advanced.
	if err := connA.Send(&Hello{XID: 1}); err != nil {
		t.Fatal(err)
	}
	ct, err := rawB.Recv()
	if err != nil {
		t.Fatal(err)
	}
	replay := make([]byte, len(ct))
	copy(replay, ct)
	// Deliver the captured frame, then replay the identical bytes: the
	// second copy's counter is already in the window, so Recv drops and
	// counts it and returns the next fresh frame instead.
	if err := rawA.Send(replay); err != nil {
		t.Fatal(err)
	}
	if _, err := connB.Recv(); err != nil {
		t.Fatalf("first delivery: %v", err)
	}
	if err := rawA.Send(replay); err != nil {
		t.Fatal(err)
	}
	if err := connA.Send(&Hello{XID: 2}); err != nil {
		t.Fatal(err)
	}
	m, err := connB.Recv()
	if err != nil {
		t.Fatalf("recv after replay: %v", err)
	}
	if h, ok := m.(*Hello); !ok || h.XID != 2 {
		t.Fatalf("recv after replay = %#v, want the fresh Hello xid=2", m)
	}
	if _, replays := recvCounters(connB); replays != 1 {
		t.Fatalf("replays = %d, want 1", replays)
	}
}

// TestSecureRecvWindowTakesReorderedBurst: on a lossy transport a burst
// delivered in reverse arrives whole, a duplicate is dropped and counted,
// a frame older than the 64-counter window is dropped, and the session
// stays up throughout.
func TestSecureRecvWindowTakesReorderedBurst(t *testing.T) {
	ca, ctl, ctlCert, sw, swCert := transportPKI(t)
	rawA, rawB := Pipe()
	lossA := &droppingTransport{Transport: rawA, drop: map[int]bool{}}
	lossB := &droppingTransport{Transport: rawB, drop: map[int]bool{}}
	connA, connB, err := ConnectSecureOver(lossA, lossB, ctl, ctlCert, sw, swCert, ca.Pub)
	if err != nil {
		t.Fatal(err)
	}
	defer connA.Close()
	defer connB.Close()

	// capture takes n frames off the wire before connB sees them.
	capture := func(first, n int) [][]byte {
		var cts [][]byte
		for i := first; i < first+n; i++ {
			if err := connA.Send(&Hello{XID: uint32(i)}); err != nil {
				t.Fatal(err)
			}
			ct, err := rawB.Recv()
			if err != nil {
				t.Fatal(err)
			}
			cts = append(cts, ct)
		}
		return cts
	}
	expect := func(xid uint32) {
		t.Helper()
		m, err := connB.Recv()
		if err != nil {
			t.Fatalf("recv xid %d: %v", xid, err)
		}
		if h, ok := m.(*Hello); !ok || h.XID != xid {
			t.Fatalf("recv = %#v, want Hello xid=%d", m, xid)
		}
	}
	burst := capture(0, 8)
	for i := len(burst) - 1; i >= 0; i-- {
		if err := rawA.Send(burst[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := rawA.Send(burst[3]); err != nil { // a duplicate
		t.Fatal(err)
	}
	if err := connA.Send(&Hello{XID: 8}); err != nil {
		t.Fatal(err)
	}
	for xid := 7; xid >= 0; xid-- {
		expect(uint32(xid))
	}
	expect(8) // Recv skipped the duplicate
	if lost, replays := recvCounters(connB); lost != 0 || replays != 1 {
		t.Fatalf("after the reversed burst: lost %d, replays %d, want 0 and 1", lost, replays)
	}
	late := capture(9, 1)
	for xid := 10; xid < 10+64; xid++ {
		if err := connA.Send(&Hello{XID: uint32(xid)}); err != nil {
			t.Fatal(err)
		}
		expect(uint32(xid))
	}
	if err := rawA.Send(late[0]); err != nil { // 64 counters behind
		t.Fatal(err)
	}
	if err := connA.Send(&Hello{XID: 100}); err != nil {
		t.Fatal(err)
	}
	expect(100) // the stale frame was skipped, not fatal
	if lost, replays := recvCounters(connB); lost != 1 || replays != 2 {
		t.Fatalf("lost %d, replays %d, want 1 (the stale frame) and 2 (duplicate, stale)", lost, replays)
	}
}

// recvCounters reads a connection's loss and replay counters.
func recvCounters(s *SecureConn) (lost, replays uint64) {
	s.recvMu.Lock()
	defer s.recvMu.Unlock()
	return s.recvLost, s.recvReplays
}

func TestStrictNonceOnReliablePipeUnchanged(t *testing.T) {
	ca, ctl, ctlCert, sw, swCert := transportPKI(t)
	rawA, rawB := Pipe()
	connA, connB, err := ConnectSecureOver(rawA, rawB, ctl, ctlCert, sw, swCert, ca.Pub)
	if err != nil {
		t.Fatal(err)
	}
	defer connA.Close()
	defer connB.Close()

	// Hand-craft a frame with a skipped counter: on the reliable pipe this
	// must still fail (gap = tampering, not loss).
	if err := connA.Send(&Hello{XID: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := connB.Recv(); err != nil {
		t.Fatal(err)
	}
	connA.sendMu.Lock()
	connA.sendCtr += 5 // simulate a counter gap
	connA.sendMu.Unlock()
	if err := connA.Send(&Hello{XID: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := connB.Recv(); err == nil {
		t.Fatal("counter gap accepted on reliable pipe")
	}
}

func TestConnectSecureOverRejectsBadCA(t *testing.T) {
	_, ctl, _, sw, _ := transportPKI(t)
	otherCA, err := NewCA()
	if err != nil {
		t.Fatal(err)
	}
	rogueCA, err := NewCA()
	if err != nil {
		t.Fatal(err)
	}
	ta, tb, err := UDPPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	defer tb.Close()
	// Certs issued by a CA the verifier does not trust.
	_, _, err = ConnectSecureOver(ta, tb, ctl, rogueCA.Issue(ctl), sw, rogueCA.Issue(sw), otherCA.Pub)
	if err == nil {
		t.Fatal("handshake with untrusted CA succeeded")
	}
	if !errors.Is(err, ErrBadCert) {
		// Either side may fail first; both must report the cert failure.
		t.Fatalf("err = %v, want ErrBadCert", err)
	}
}

func TestUDPPipeManyConcurrentChannels(t *testing.T) {
	// A deployment brings up dozens of secure channels concurrently; make
	// sure handshakes don't cross-talk between socket pairs.
	ca, err := NewCA()
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewIdentity("controller")
	if err != nil {
		t.Fatal(err)
	}
	ctlCert := ca.Issue(ctl)
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sw, err := NewIdentity(fmt.Sprintf("switch-%d", i))
			if err != nil {
				errs <- err
				return
			}
			ta, tb, err := UDPPipe()
			if err != nil {
				errs <- err
				return
			}
			ca1, cb1, err := ConnectSecureOver(ta, tb, ctl, ctlCert, sw, ca.Issue(sw), ca.Pub)
			if err != nil {
				errs <- fmt.Errorf("channel %d: %w", i, err)
				return
			}
			defer ca1.Close()
			defer cb1.Close()
			if err := ca1.Send(&Hello{XID: uint32(i)}); err != nil {
				errs <- err
				return
			}
			m, err := cb1.Recv()
			if err != nil {
				errs <- fmt.Errorf("channel %d recv: %w", i, err)
				return
			}
			if h, ok := m.(*Hello); !ok || h.XID != uint32(i) {
				errs <- fmt.Errorf("channel %d cross-talk: %#v", i, m)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
