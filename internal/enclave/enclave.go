// Package enclave simulates the trusted-hardware substrate the paper points
// to ("our architecture can also benefit from the advent of novel hardware
// developed in the context of Intel SGX", §I-B): measurement-based launch,
// and local/remote attestation quotes.
//
// Substitution note (see DESIGN.md): the cryptographic protocol is real —
// Ed25519 quotes over a SHA-256 code measurement with caller-chosen report
// data — only the hardware root of trust is software. Everything RVaaS and
// its clients do with the enclave (verify the service's identity, pin its
// signing key) exercises the same code paths as on real SGX.
package enclave

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Measurement is the SHA-256 hash of the launched code identity (MRENCLAVE
// analogue).
type Measurement [32]byte

// MeasurementOf hashes a code identity.
func MeasurementOf(code []byte) Measurement {
	return sha256.Sum256(code)
}

// ErrQuoteInvalid is returned for a quote that fails verification.
var ErrQuoteInvalid = errors.New("enclave: quote verification failed")

// Quote is an attestation statement: "an enclave with this measurement,
// running on a platform endorsed by the root key, produced this report
// data".
type Quote struct {
	Measurement Measurement
	ReportData  [64]byte
	Signature   []byte
}

func quoteSigningBytes(m Measurement, rd [64]byte) []byte {
	out := make([]byte, 0, 7+32+64)
	out = append(out, "quote.1"...)
	out = append(out, m[:]...)
	out = append(out, rd[:]...)
	return out
}

// Marshal encodes the quote.
func (q *Quote) Marshal() []byte {
	out := make([]byte, 0, 32+64+2+len(q.Signature))
	out = append(out, q.Measurement[:]...)
	out = append(out, q.ReportData[:]...)
	out = binary.BigEndian.AppendUint16(out, uint16(len(q.Signature)))
	out = append(out, q.Signature...)
	return out
}

// UnmarshalQuote decodes a quote. The encoding is canonical — trailing
// bytes are an error — so equal quotes are exactly those with equal bytes.
func UnmarshalQuote(data []byte) (*Quote, error) {
	if len(data) < 32+64+2 {
		return nil, ErrQuoteInvalid
	}
	var q Quote
	copy(q.Measurement[:], data[:32])
	copy(q.ReportData[:], data[32:96])
	n := int(binary.BigEndian.Uint16(data[96:98]))
	if len(data) != 98+n {
		return nil, ErrQuoteInvalid
	}
	q.Signature = append([]byte(nil), data[98:]...)
	return &q, nil
}

// Verify checks the quote against the platform root key.
func (q *Quote) Verify(rootPub ed25519.PublicKey) bool {
	return ed25519.Verify(rootPub, quoteSigningBytes(q.Measurement, q.ReportData), q.Signature)
}

// Platform is the trusted hardware root (the "Intel" of the simulation).
type Platform struct {
	rootPub  ed25519.PublicKey
	rootPriv ed25519.PrivateKey
}

// NewPlatform generates a platform with a fresh attestation root.
func NewPlatform() (*Platform, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("platform keygen: %w", err)
	}
	return &Platform{rootPub: pub, rootPriv: priv}, nil
}

// RootKey returns the attestation root public key clients pin.
func (p *Platform) RootKey() ed25519.PublicKey { return p.rootPub }

// Launch measures the code and instantiates an enclave on this platform.
func (p *Platform) Launch(code []byte) (*Enclave, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("enclave keygen: %w", err)
	}
	e := &Enclave{
		platform:    p,
		measurement: MeasurementOf(code),
		signPub:     pub,
		signPriv:    priv,
	}
	// Attestation is a launch-time cost: the key never changes, so neither
	// does the quote that commits to it.
	e.keyQuote = e.QuoteFor(keyReportData(pub)).Marshal()
	return e, nil
}

// Enclave is one launched instance. Its signing key never leaves it; the
// quote binds the key to the measurement.
type Enclave struct {
	platform    *Platform
	measurement Measurement
	signPub     ed25519.PublicKey
	signPriv    ed25519.PrivateKey
	keyQuote    []byte // marshalled, signed once by Launch, read-only after
}

// Measurement returns the enclave's code measurement.
func (e *Enclave) Measurement() Measurement { return e.measurement }

// PublicKey returns the enclave's signing public key.
func (e *Enclave) PublicKey() ed25519.PublicKey { return e.signPub }

// Sign signs msg with the enclave-held key.
func (e *Enclave) Sign(msg []byte) []byte {
	return ed25519.Sign(e.signPriv, msg)
}

// VerifyFrom checks a signature against a claimed enclave public key.
func VerifyFrom(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize {
		return false
	}
	return ed25519.Verify(pub, msg, sig)
}

// keyReportData is the report data that commits a quote to a service key:
// sha256(key), zero-padded.
func keyReportData(key ed25519.PublicKey) (rd [64]byte) {
	h := sha256.Sum256(key)
	copy(rd[:32], h[:])
	return rd
}

// KeyQuote returns the attestation quote whose report data commits to the
// enclave's signing public key: the standard pattern for provisioning a
// verifiable service key. The quote was signed at launch; the caller owns
// the returned copy.
func (e *Enclave) KeyQuote() *Quote {
	q, _ := UnmarshalQuote(e.keyQuote) // our own encoding: cannot fail
	return q
}

// SignAttested signs msg and returns, with the signature, the encoded key
// quote that lets a verifier trust the signing key: what every message to
// a client carries. The caller owns both slices.
func (e *Enclave) SignAttested(msg []byte) (sig, quote []byte) {
	return e.Sign(msg), append([]byte(nil), e.keyQuote...)
}

// QuoteFor produces a quote over arbitrary report data.
func (e *Enclave) QuoteFor(reportData [64]byte) *Quote {
	return &Quote{
		Measurement: e.measurement,
		ReportData:  reportData,
		Signature:   ed25519.Sign(e.platform.rootPriv, quoteSigningBytes(e.measurement, reportData)),
	}
}

// VerifyKeyQuote checks that quote (a) verifies under rootPub, (b) claims
// the expected measurement, and (c) commits to the claimed service key.
// This is the client-side attestation step ("through attestation, the
// client can verify that RVaaS is the one that securely responds to its
// queries", §IV-A).
func VerifyKeyQuote(rootPub ed25519.PublicKey, quote *Quote, expected Measurement, serviceKey ed25519.PublicKey) error {
	if !quote.Verify(rootPub) {
		return ErrQuoteInvalid
	}
	if quote.Measurement != expected {
		return fmt.Errorf("%w: measurement mismatch", ErrQuoteInvalid)
	}
	if quote.ReportData != keyReportData(serviceKey) {
		return fmt.Errorf("%w: report data does not commit to service key", ErrQuoteInvalid)
	}
	return nil
}
