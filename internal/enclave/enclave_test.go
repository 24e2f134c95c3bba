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

func TestSealUnsealRoundTrip(t *testing.T) {
	_, e := testEnclave(t, "rvaas-v1")
	secret := []byte("snapshot-state")
	blob, err := e.Seal(secret)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Unseal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Error("unsealed data differs")
	}
}

func TestSealBoundToMeasurement(t *testing.T) {
	p, e := testEnclave(t, "rvaas-v1")
	evil, err := p.Launch([]byte("evil-v1"))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := e.Seal([]byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evil.Unseal(blob); !errors.Is(err, ErrSealCorrupt) {
		t.Errorf("cross-enclave unseal: %v, want ErrSealCorrupt", err)
	}
}

func TestSealBoundToPlatform(t *testing.T) {
	_, e1 := testEnclave(t, "rvaas-v1")
	_, e2 := testEnclave(t, "rvaas-v1") // same code, different platform
	blob, err := e1.Seal([]byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Unseal(blob); !errors.Is(err, ErrSealCorrupt) {
		t.Errorf("cross-platform unseal: %v, want ErrSealCorrupt", err)
	}
}

func TestSealCorruption(t *testing.T) {
	_, e := testEnclave(t, "rvaas-v1")
	blob, err := e.Seal([]byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xFF
	if _, err := e.Unseal(blob); !errors.Is(err, ErrSealCorrupt) {
		t.Errorf("corrupt unseal: %v", err)
	}
	if _, err := e.Unseal([]byte{1}); !errors.Is(err, ErrSealCorrupt) {
		t.Errorf("tiny blob: %v", err)
	}
}

func TestMonotonicCounter(t *testing.T) {
	_, e := testEnclave(t, "rvaas-v1")
	v1 := e.CounterIncrement()
	v2 := e.CounterIncrement()
	if v2 != v1+1 {
		t.Errorf("counter not monotonic: %d %d", v1, v2)
	}
	if err := e.CounterAssert(v2); err != nil {
		t.Errorf("current value rejected: %v", err)
	}
	if err := e.CounterAssert(v1); !errors.Is(err, ErrCounterBehind) {
		t.Errorf("stale value accepted: %v", err)
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
