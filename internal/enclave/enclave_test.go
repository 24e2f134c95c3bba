package enclave

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"
)

func testEnclave(t *testing.T, code string) (*Platform, *Enclave) {
	t.Helper()
	p, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.Launch([]byte(code))
	if err != nil {
		t.Fatal(err)
	}
	return p, e
}

func TestKeyQuoteVerifies(t *testing.T) {
	p, e := testEnclave(t, "rvaas-v1")
	q := e.KeyQuote()
	err := VerifyKeyQuote(p.RootKey(), q, MeasurementOf([]byte("rvaas-v1")), e.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
}

// TestKeyQuoteIsLaunchTimeArtefact: the key quote is signed once, at launch.
// Every call returns the same bytes — exactly what signing report data
// sha256(pub)‖0³² afresh yields — and callers cannot reach the cached copy.
func TestKeyQuoteIsLaunchTimeArtefact(t *testing.T) {
	p, e := testEnclave(t, "rvaas-v1")
	var rd [64]byte
	h := sha256.Sum256(e.PublicKey())
	copy(rd[:32], h[:])
	want := e.QuoteFor(rd).Marshal()

	q := e.KeyQuote()
	msg := []byte("verdict")
	sig, raw := e.SignAttested(msg)
	if !bytes.Equal(q.Marshal(), want) || !bytes.Equal(raw, want) {
		t.Fatal("cached key quote differs from a fresh quote over sha256(pub) zero-padded to 64 bytes")
	}
	if err := VerifyKeyQuote(p.RootKey(), q, e.Measurement(), e.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if !VerifyFrom(e.PublicKey(), msg, sig) {
		t.Fatal("SignAttested signature does not verify under the enclave key")
	}

	q.Measurement[0] ^= 1
	q.ReportData[0] ^= 1
	q.Signature[0] ^= 1
	for i := range raw {
		raw[i] = 0
	}
	if _, again := e.SignAttested(msg); !bytes.Equal(e.KeyQuote().Marshal(), want) || !bytes.Equal(again, want) {
		t.Fatal("mutating a returned quote changed the next one")
	}
}

func TestKeyQuoteRejectsWrongMeasurement(t *testing.T) {
	p, e := testEnclave(t, "rvaas-v1")
	q := e.KeyQuote()
	err := VerifyKeyQuote(p.RootKey(), q, MeasurementOf([]byte("evil-v1")), e.PublicKey())
	if !errors.Is(err, ErrQuoteInvalid) {
		t.Errorf("err = %v, want ErrQuoteInvalid", err)
	}
}

func TestKeyQuoteRejectsWrongKey(t *testing.T) {
	p, e := testEnclave(t, "rvaas-v1")
	_, other := testEnclave(t, "rvaas-v1")
	q := e.KeyQuote()
	err := VerifyKeyQuote(p.RootKey(), q, e.Measurement(), other.PublicKey())
	if !errors.Is(err, ErrQuoteInvalid) {
		t.Errorf("err = %v, want ErrQuoteInvalid", err)
	}
}

func TestKeyQuoteRejectsWrongRoot(t *testing.T) {
	_, e := testEnclave(t, "rvaas-v1")
	otherPlatform, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	q := e.KeyQuote()
	err = VerifyKeyQuote(otherPlatform.RootKey(), q, e.Measurement(), e.PublicKey())
	if !errors.Is(err, ErrQuoteInvalid) {
		t.Errorf("err = %v, want ErrQuoteInvalid", err)
	}
}

func TestQuoteMarshalRoundTrip(t *testing.T) {
	p, e := testEnclave(t, "rvaas-v1")
	q := e.KeyQuote()
	got, err := UnmarshalQuote(q.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Measurement != q.Measurement || !bytes.Equal(got.Signature, q.Signature) {
		t.Error("round trip mismatch")
	}
	if !got.Verify(p.RootKey()) {
		t.Error("round-tripped quote does not verify")
	}
	if _, err := UnmarshalQuote([]byte{1, 2}); err == nil {
		t.Error("short quote accepted")
	}
	// Canonical: one quote, one encoding (clients compare quotes by bytes).
	if _, err := UnmarshalQuote(append(q.Marshal(), 0)); err == nil {
		t.Error("quote with a trailing byte accepted")
	}
}

func TestSignVerify(t *testing.T) {
	_, e := testEnclave(t, "rvaas-v1")
	msg := []byte("response body")
	sig := e.Sign(msg)
	if !VerifyFrom(e.PublicKey(), msg, sig) {
		t.Error("valid signature rejected")
	}
	if VerifyFrom(e.PublicKey(), []byte("tampered"), sig) {
		t.Error("tampered message accepted")
	}
	if VerifyFrom(nil, msg, sig) {
		t.Error("nil key accepted")
	}
}

func TestMeasurementDeterminism(t *testing.T) {
	if MeasurementOf([]byte("a")) != MeasurementOf([]byte("a")) {
		t.Error("measurement not deterministic")
	}
	if MeasurementOf([]byte("a")) == MeasurementOf([]byte("b")) {
		t.Error("measurement collision")
	}
}
