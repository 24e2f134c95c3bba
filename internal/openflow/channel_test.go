package openflow

import (
	"errors"
	"io"
	"testing"
)

func testPKI(t *testing.T) (*CA, *Identity, Certificate, *Identity, Certificate) {
	t.Helper()
	ca, err := NewCA()
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewIdentity("switch-1")
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewIdentity("rvaas")
	if err != nil {
		t.Fatal(err)
	}
	return ca, sw, ca.Issue(sw), ctl, ca.Issue(ctl)
}

func TestSecureChannelRoundTrip(t *testing.T) {
	ca, sw, swCert, ctl, ctlCert := testPKI(t)
	a, b, err := ConnectSecure(ctl, ctlCert, sw, swCert, ca.Pub)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	if a.PeerName() != "switch-1" || b.PeerName() != "rvaas" {
		t.Errorf("peer names: %q %q", a.PeerName(), b.PeerName())
	}

	want := &PacketIn{XID: 7, Reason: ReasonNoMatch, InPort: 1, Data: []byte("frame")}
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	pi, ok := got.(*PacketIn)
	if !ok || pi.XID != 7 || string(pi.Data) != "frame" {
		t.Errorf("got %#v", got)
	}

	// And the reverse direction.
	if err := b.Send(&EchoReply{XID: 7}); err != nil {
		t.Fatal(err)
	}
	if m, err := a.Recv(); err != nil || m.Type() != TypeEchoReply {
		t.Errorf("reverse recv: %v %v", m, err)
	}
}

func TestSecureChannelRejectsForgedCert(t *testing.T) {
	ca, sw, _, ctl, ctlCert := testPKI(t)
	// A second CA (the attacker) signs the switch cert.
	evilCA, err := NewCA()
	if err != nil {
		t.Fatal(err)
	}
	forged := evilCA.Issue(sw)
	_, _, err = ConnectSecure(ctl, ctlCert, sw, forged, ca.Pub)
	if !errors.Is(err, ErrBadCert) {
		t.Errorf("err = %v, want ErrBadCert", err)
	}
}

func TestSecureChannelRejectsStolenCert(t *testing.T) {
	ca, sw, swCert, ctl, ctlCert := testPKI(t)
	// Attacker presents the switch's real certificate but signs the
	// transcript with its own key.
	attacker, err := NewIdentity("attacker")
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = ConnectSecure(ctl, ctlCert, attacker, swCert, ca.Pub)
	if !errors.Is(err, ErrBadHandshake) {
		t.Errorf("err = %v, want ErrBadHandshake", err)
	}
	_ = sw
}

func TestSecureChannelManyMessages(t *testing.T) {
	ca, sw, swCert, ctl, ctlCert := testPKI(t)
	a, b, err := ConnectSecure(ctl, ctlCert, sw, swCert, ca.Pub)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	const n = 500
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := a.Send(&EchoRequest{XID: uint32(i)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.XIDValue() != uint32(i) {
			t.Fatalf("out of order: got %d want %d", m.XIDValue(), i)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestRawConnCloseUnblocksRecv(t *testing.T) {
	a, b := Pipe()
	go a.Close()
	for {
		_, err := b.Recv()
		if err != nil {
			if err != io.EOF {
				t.Errorf("err = %v, want EOF", err)
			}
			break
		}
	}
	if err := a.Send([]byte("x")); !errors.Is(err, ErrChannelClosed) {
		t.Errorf("send after close: %v", err)
	}
}

func TestRawConnDrainAfterClose(t *testing.T) {
	a, b := Pipe()
	if err := a.Send([]byte("queued")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	data, err := b.Recv()
	if err != nil || string(data) != "queued" {
		t.Errorf("drain: %q %v", data, err)
	}
	if _, err := b.Recv(); err != io.EOF {
		t.Errorf("after drain: %v, want EOF", err)
	}
}

func TestCertificateVerify(t *testing.T) {
	ca, sw, swCert, _, _ := testPKI(t)
	if !swCert.Verify(ca.Pub) {
		t.Error("valid cert rejected")
	}
	tampered := swCert
	tampered.Name = "switch-2"
	if tampered.Verify(ca.Pub) {
		t.Error("tampered cert accepted")
	}
	_ = sw
}

func TestIdentitySign(t *testing.T) {
	id, err := NewIdentity("x")
	if err != nil {
		t.Fatal(err)
	}
	sig := id.Sign([]byte("msg"))
	if len(sig) == 0 {
		t.Error("empty signature")
	}
}

// TestSecureChannelConcurrentSenders: frames from concurrent senders must
// reach the wire in AEAD-counter order — the receiver's replay check
// rejects a counter that arrives behind a later one, which kills the
// session. Run under -race.
func TestSecureChannelConcurrentSenders(t *testing.T) {
	ca, sw, swCert, ctl, ctlCert := testPKI(t)
	a, b, err := ConnectSecure(ctl, ctlCert, sw, swCert, ca.Pub)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	const senders, each = 8, 1000
	errs := make(chan error, senders)
	for g := 0; g < senders; g++ {
		go func(g int) {
			for i := 0; i < each; i++ {
				if err := a.Send(&EchoRequest{XID: uint32(g*each + i)}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	seen := make(map[uint32]bool, senders*each)
	for i := 0; i < senders*each; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		seen[m.XIDValue()] = true
	}
	for g := 0; g < senders; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != senders*each {
		t.Fatalf("decrypted %d distinct messages, want %d", len(seen), senders*each)
	}
}
