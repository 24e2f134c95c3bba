package client

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/enclave"
	"repro/internal/wire"
)

// The agent checks a server's key quote under the platform root once per
// pinned key and byte-compares it afterwards. These tests pin down that the
// shortcut accepts exactly what the full check accepts; each fails if the
// memo is widened (consulted across a re-pin, populated from a failed
// check, matched on anything but the exact bytes, or allowed to stand in
// for the message's own signature).

// subscribed registers one subscription against the fake server and returns
// it with its nonce. The ack is the first message verified under the key.
func subscribed(t *testing.T, a *Agent, nic *fakeNIC, encl *enclave.Enclave, subID uint64) (*Subscription, uint64) {
	t.Helper()
	subCh := make(chan *Subscription, 1)
	errCh := make(chan error, 1)
	go func() {
		sub, err := a.Subscribe(wire.QueryReachableDestinations, nil, "")
		subCh <- sub
		errCh <- err
	}()
	add := sniffSubscribeOp(t, nic, wire.SubOpAdd, map[uint64]bool{})
	deliverNotification(a, signedNotification(encl, wire.NotifyAck, subID, add.Nonce, 0))
	sub := <-subCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	return sub, add.Nonce
}

// sameCodeEnclave launches a second enclave with the pinned measurement on
// the same platform: a legitimate RVaaS instance with its own key.
func sameCodeEnclave(t *testing.T, p *enclave.Platform) *enclave.Enclave {
	t.Helper()
	e, err := p.Launch([]byte("rvaas-controller-v1"))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestQuoteVerifiedOncePerPinnedKey(t *testing.T) {
	a, nic, _, encl := testAgent(t)
	sub, nonce := subscribed(t, a, nic, encl, 41)
	const n = 20
	for seq := uint64(1); seq <= n; seq++ {
		deliverPush(a, encl, pushItem(wire.NotifyViolation, 41, nonce, seq))
	}
	for seq := uint64(1); seq <= n; seq++ {
		select {
		case got := <-sub.C:
			if got.Seq != seq {
				t.Fatalf("delivered seq %d, want %d", got.Seq, seq)
			}
		default:
			t.Fatalf("notification %d of %d not delivered", seq, n)
		}
	}
	if got := a.QuoteVerifications(); got != 1 {
		t.Errorf("QuoteVerifications = %d after an ack and %d pushes under one key, want 1", got, n)
	}
	if got := a.SignatureVerifications(); got != 1+n {
		t.Errorf("SignatureVerifications = %d after an ack and %d pushes, want %d", got, n, 1+n)
	}
}

func TestMemoisedQuoteDoesNotVouchForSignature(t *testing.T) {
	a, nic, platform, encl := testAgent(t)
	sub, nonce := subscribed(t, a, nic, encl, 41) // memoises encl's quote

	item := pushItem(wire.NotifyViolation, 41, nonce, 1)
	flipped := signedBatch(encl, item)
	flipped.Signature[17] ^= 0x01
	retold := signedBatch(encl, item)
	retold.Items[0].Detail = "something else" // tampered after signing
	forged := signedBatch(sameCodeEnclave(t, platform), item)
	forged.Quote = encl.KeyQuote().Marshal() // another key's signature under the memoised quote
	for name, b := range map[string]*wire.NotifyBatch{"bit-flipped": flipped, "tampered": retold, "other key": forged} {
		if err := a.verifyFromServer(b.SigningBytes(), b.Signature, b.Quote); !errors.Is(err, ErrBadSignature) {
			t.Errorf("%s signature under the memoised quote: err = %v, want ErrBadSignature", name, err)
		}
		deliver(a.HandleFrame, wire.OpNotifyBatch, 1, b.Marshal())
	}
	select {
	case got := <-sub.C:
		t.Fatalf("forged notification delivered: %+v", got)
	default:
	}
	if got := a.QuoteVerifications(); got != 1 {
		t.Errorf("QuoteVerifications = %d, want 1 (the quote bytes never changed)", got)
	}
}

func TestMemoMatchesExactBytesOnly(t *testing.T) {
	a, _, _, encl := testAgent(t)
	good := encl.KeyQuote().Marshal()
	mutants := map[string][]byte{
		"empty":            {},
		"measurement":      flipBit(good, 5),
		"report data":      flipBit(good, 40),
		"report data pad":  flipBit(good, 80),
		"length prefix hi": flipBit(good, 96),
		"length prefix lo": flipBit(good, 97),
		"signature":        flipBit(good, 120),
		"last byte":        flipBit(good, len(good)-1),
		"truncated":        good[:len(good)-1],
		"trailing byte":    append(append([]byte(nil), good...), 0),
	}
	check := func(stage string, wantChecks uint64) {
		t.Helper()
		for name, q := range mutants {
			n := signedNotification(encl, wire.NotifyViolation, 1, 1, 1)
			n.Quote = q
			if err := a.VerifyNotification(n); !errors.Is(err, ErrBadAttestation) {
				t.Errorf("%s, %s quote: err = %v, want ErrBadAttestation", stage, name, err)
			}
		}
		// None of the failed checks may have displaced (or planted) the memo.
		if err := a.VerifyNotification(signedNotification(encl, wire.NotifyViolation, 1, 1, 2)); err != nil {
			t.Fatalf("%s: good message rejected: %v", stage, err)
		}
		if got := a.QuoteVerifications(); got != wantChecks {
			t.Errorf("%s: QuoteVerifications = %d, want %d", stage, got, wantChecks)
		}
	}
	// Root-key checks: every mutant that still parses (all but empty,
	// both length-prefix flips, truncated and trailing byte).
	const parsing = 5
	check("before any message", parsing+1) // + the good message, memoised now
	check("after memoising the good quote", 2*parsing+1)
}

func flipBit(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x01
	return out
}

func TestOtherEnclaveQuoteRejectedAroundMemo(t *testing.T) {
	a, _, platform, encl := testAgent(t) // encl's key is pinned
	other := sameCodeEnclave(t, platform)
	evil, err := platform.Launch([]byte("evil-controller"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		for name, e := range map[string]*enclave.Enclave{"same code, other key": other, "other code": evil} {
			// Entirely self-consistent messages from the wrong enclave...
			if err := a.VerifyNotification(signedNotification(e, wire.NotifyViolation, 1, 1, 1)); !errors.Is(err, ErrBadAttestation) {
				t.Errorf("%s, %s: err = %v, want ErrBadAttestation", stage, name, err)
			}
			// ...and the pinned enclave's signature under the wrong quote.
			n := signedNotification(encl, wire.NotifyViolation, 1, 1, 1)
			n.Quote = e.KeyQuote().Marshal()
			if err := a.VerifyNotification(n); !errors.Is(err, ErrBadAttestation) {
				t.Errorf("%s, pinned signature + %s quote: err = %v, want ErrBadAttestation", stage, name, err)
			}
		}
	}
	check("before memo")
	if err := a.VerifyNotification(signedNotification(encl, wire.NotifyViolation, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	check("after memo")
	if err := a.VerifyNotification(signedNotification(encl, wire.NotifyViolation, 1, 1, 2)); err != nil {
		t.Fatalf("pinned enclave rejected after foreign quotes: %v", err)
	}
}

func TestRepinClearsMemo(t *testing.T) {
	a, _, platform, encA := testAgent(t)
	encB := sameCodeEnclave(t, platform)
	fromA := signedNotification(encA, wire.NotifyViolation, 1, 1, 1)
	fromB := signedNotification(encB, wire.NotifyViolation, 1, 1, 1)
	if err := a.VerifyNotification(fromA); err != nil {
		t.Fatal(err)
	}

	a.PinServerKey(encB.PublicKey())
	if err := a.VerifyNotification(fromA); !errors.Is(err, ErrBadAttestation) {
		t.Errorf("message of the previous key after re-pin: err = %v, want ErrBadAttestation", err)
	}
	// B's signature under A's (once memoised) quote must not ride the memo.
	crossed := signedNotification(encB, wire.NotifyViolation, 1, 1, 1)
	crossed.Quote = encA.KeyQuote().Marshal()
	if err := a.VerifyNotification(crossed); !errors.Is(err, ErrBadAttestation) {
		t.Errorf("new key's signature under the old quote: err = %v, want ErrBadAttestation", err)
	}
	before := a.QuoteVerifications()
	for i := 0; i < 5; i++ {
		if err := a.VerifyNotification(fromB); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.QuoteVerifications() - before; got != 1 {
		t.Errorf("5 messages under the re-pinned key cost %d quote verifications, want 1", got)
	}

	// Re-pinning the same key is still a re-pin.
	a.PinServerKey(encB.PublicKey())
	if err := a.VerifyNotification(fromB); err != nil {
		t.Fatal(err)
	}
	if got := a.QuoteVerifications() - before; got != 2 {
		t.Errorf("quote verifications after re-pinning the same key = %d, want 2", got)
	}
}

// TestMemoNeverOutlivesItsPin races verification against re-pinning from 8
// goroutines (run under -race -count=10 in CI). A message whose signature is by one enclave
// and whose quote is the other's verifies under neither pin; it is accepted
// only if a quote checked for one key were memoised for the other.
func TestMemoNeverOutlivesItsPin(t *testing.T) {
	a, _, platform, encA := testAgent(t)
	encB := sameCodeEnclave(t, platform)
	keys := [2]*enclave.Enclave{encA, encB}
	var honest, crossed [2]*wire.Notification
	for i, e := range keys {
		honest[i] = signedNotification(e, wire.NotifyViolation, 1, 1, 1)
		crossed[i] = signedNotification(e, wire.NotifyViolation, 1, 1, 1)
		crossed[i].Quote = keys[1-i].KeyQuote().Marshal()
	}

	const rounds = 300
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (g + i) % 2
				if i%5 == 0 {
					a.PinServerKey(keys[k].PublicKey())
				}
				// Either outcome is right for an honest message,
				// depending on which key is pinned when it is checked.
				_ = a.verifyFromServer(honest[k].SigningBytes(), honest[k].Signature, honest[k].Quote)
				if err := a.verifyFromServer(crossed[k].SigningBytes(), crossed[k].Signature, crossed[k].Quote); err == nil {
					t.Errorf("accepted a signature by key %d under the quote of key %d", k, 1-k)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	a.PinServerKey(encA.PublicKey())
	if err := a.VerifyNotification(honest[0]); err != nil {
		t.Errorf("pinned enclave rejected after the race: %v", err)
	}
	if err := a.VerifyNotification(honest[1]); !errors.Is(err, ErrBadAttestation) {
		t.Errorf("unpinned enclave after the race: err = %v, want ErrBadAttestation", err)
	}
}
