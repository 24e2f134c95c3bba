package openflow

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// The paper requires "encrypted OpenFlow sessions and a-priori configured
// switch certificates for authentication" (§III). This file implements that
// channel: mutual authentication with CA-issued Ed25519 certificates, an
// X25519 key agreement, and AES-GCM framing.

// Channel errors.
var (
	ErrChannelClosed = errors.New("openflow: channel closed")
	ErrBadCert       = errors.New("openflow: certificate verification failed")
	ErrBadHandshake  = errors.New("openflow: handshake verification failed")
)

// Identity is a named Ed25519 key pair (switch or controller).
type Identity struct {
	Name string
	Pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewIdentity generates a fresh identity.
func NewIdentity(name string) (*Identity, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generate identity: %w", err)
	}
	return &Identity{Name: name, Pub: pub, priv: priv}, nil
}

// Sign signs msg with the identity's private key.
func (id *Identity) Sign(msg []byte) []byte {
	return ed25519.Sign(id.priv, msg)
}

// Certificate binds a name to a public key under a CA signature.
type Certificate struct {
	Name string
	Pub  ed25519.PublicKey
	Sig  []byte
}

func certSigningBytes(name string, pub ed25519.PublicKey) []byte {
	w := wire.NewWriter(make([]byte, 0, 10+len(name)+len(pub)))
	w.Raw([]byte("ofcert.1"))
	w.Str(name)
	w.Raw(pub)
	return w.Bytes()
}

// Verify checks the certificate against the CA public key.
func (c *Certificate) Verify(caPub ed25519.PublicKey) bool {
	if len(c.Pub) != ed25519.PublicKeySize {
		return false
	}
	return ed25519.Verify(caPub, certSigningBytes(c.Name, c.Pub), c.Sig)
}

func (c *Certificate) marshal() []byte {
	var w wire.Writer
	putStr(&w, c.Name)
	w.Bytes32(c.Pub)
	w.Bytes32(c.Sig)
	return w.Bytes()
}

func unmarshalCert(data []byte) (Certificate, error) {
	r := wire.NewReader(data)
	c := Certificate{Name: getStr(&r), Pub: r.Bytes32(), Sig: r.Bytes32()}
	if r.Err() != nil {
		return Certificate{}, ErrShortMessage
	}
	return c, nil
}

// CA issues channel certificates. In the paper's deployment the CA role is
// played by whoever provisions switch certificates (the infrastructure
// owner), independent of the possibly-compromised control plane.
type CA struct {
	Pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewCA generates a certificate authority.
func NewCA() (*CA, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generate ca: %w", err)
	}
	return &CA{Pub: pub, priv: priv}, nil
}

// Issue signs a certificate for the identity.
func (ca *CA) Issue(id *Identity) Certificate {
	return ca.IssueKey(id.Name, id.Pub)
}

// IssueKey signs a certificate binding name to a bare public key — the
// CSR-style path: a remote process generates its identity locally, sends
// only the public key, and receives a certificate back (the private key
// never crosses a process boundary).
func (ca *CA) IssueKey(name string, pub ed25519.PublicKey) Certificate {
	return Certificate{
		Name: name,
		Pub:  pub,
		Sig:  ed25519.Sign(ca.priv, certSigningBytes(name, pub)),
	}
}

// rawPipe is one direction of an in-memory byte-message pipe.
type rawPipe struct {
	ch chan []byte
}

// RawConn is an unauthenticated duplex byte-message connection (the
// "TCP socket" of the simulation). Both ends share a single done signal:
// closing either end tears the connection down, like a TCP close. The data
// channels themselves are never closed, so concurrent senders can never hit
// a send-on-closed-channel race.
type RawConn struct {
	send *rawPipe
	recv *rawPipe

	done      chan struct{} // shared by both ends
	closeOnce *sync.Once    // shared by both ends
}

// Pipe returns the two ends of an in-memory duplex connection. The buffer
// absorbs control-plane bursts (flow-monitor event storms) without
// deadlocking the switch pipeline against a slow controller.
func Pipe() (*RawConn, *RawConn) {
	const depth = 1024
	ab := &rawPipe{ch: make(chan []byte, depth)}
	ba := &rawPipe{ch: make(chan []byte, depth)}
	done := make(chan struct{})
	once := &sync.Once{}
	a := &RawConn{send: ab, recv: ba, done: done, closeOnce: once}
	b := &RawConn{send: ba, recv: ab, done: done, closeOnce: once}
	return a, b
}

// Send transmits one message, blocking if the peer is slow.
func (c *RawConn) Send(data []byte) error {
	select {
	case <-c.done:
		return ErrChannelClosed
	default:
	}
	select {
	case c.send.ch <- data:
		return nil
	case <-c.done:
		return ErrChannelClosed
	}
}

// TrySend transmits one message without ever blocking: if the peer's
// buffer is full the message is discarded and sent reports false. Callers
// use it for traffic that tolerates loss (notification pushes) where a
// wedged peer must not be able to stall the sender.
func (c *RawConn) TrySend(data []byte) (sent bool, err error) {
	select {
	case <-c.done:
		return false, ErrChannelClosed
	default:
	}
	select {
	case c.send.ch <- data:
		return true, nil
	case <-c.done:
		return false, ErrChannelClosed
	default:
		return false, nil
	}
}

// Recv blocks for the next message; io.EOF after close. Messages queued
// before the close are still drained.
func (c *RawConn) Recv() ([]byte, error) {
	select {
	case data := <-c.recv.ch:
		return data, nil
	case <-c.done:
		// Drain anything already queued before reporting EOF.
		select {
		case data := <-c.recv.ch:
			return data, nil
		default:
		}
		return nil, io.EOF
	}
}

// Close tears down the connection; both ends' Recv unblock with EOF once
// the queues drain.
func (c *RawConn) Close() {
	c.closeOnce.Do(func() { close(c.done) })
}

// SecureConn is an authenticated, encrypted OpenFlow message channel.
type SecureConn struct {
	raw      Transport
	peerName string
	lossy    bool

	sendAEAD cipher.AEAD
	recvAEAD cipher.AEAD

	sendMu  sync.Mutex
	sendCtr uint64
	// sendStalled is set while the sendMu holder is blocked on a peer whose
	// buffer is full.
	sendStalled atomic.Bool

	recvMu  sync.Mutex
	recvCtr uint64 // next in-order counter: the high-water mark plus one
	// recvWin is a lossy transport's replay window (RFC 6347 §4.1.2.6):
	// bit i is set once counter recvCtr-1-i has been accepted.
	recvWin uint64
	// recvLost counts counters the high-water mark skipped that have not
	// arrived since; recvReplays counts frames dropped as a duplicate or
	// as older than the window. Both stay 0 on a reliable transport.
	recvLost, recvReplays uint64
}

// PeerName returns the authenticated name of the remote end.
func (s *SecureConn) PeerName() string { return s.peerName }

// handshakeMsg is the single round-trip handshake payload.
type handshakeMsg struct {
	cert   Certificate
	ephPub []byte
	sig    []byte // present only in round 2/3
}

func (h *handshakeMsg) marshal() []byte {
	var w wire.Writer
	w.Bytes32(h.cert.marshal())
	w.Bytes32(h.ephPub)
	w.Bytes32(h.sig)
	return w.Bytes()
}

func unmarshalHandshake(data []byte) (*handshakeMsg, error) {
	r := wire.NewReader(data)
	certBytes, eph, sig := r.Bytes32(), r.Bytes32(), r.Bytes32()
	if r.Err() != nil {
		return nil, ErrShortMessage
	}
	cert, err := unmarshalCert(certBytes)
	if err != nil {
		return nil, err
	}
	return &handshakeMsg{cert: cert, ephPub: eph, sig: sig}, nil
}

func transcript(initEph, respEph []byte) []byte {
	out := make([]byte, 0, 8+len(initEph)+len(respEph))
	out = append(out, "ofhs.1"...)
	out = append(out, initEph...)
	out = append(out, respEph...)
	return out
}

// SecureClient runs the initiator side of the handshake over raw.
func SecureClient(raw Transport, id *Identity, cert Certificate, caPub ed25519.PublicKey) (*SecureConn, error) {
	return handshake(raw, id, cert, caPub, true)
}

// SecureServer runs the responder side of the handshake over raw.
func SecureServer(raw Transport, id *Identity, cert Certificate, caPub ed25519.PublicKey) (*SecureConn, error) {
	return handshake(raw, id, cert, caPub, false)
}

func handshake(raw Transport, id *Identity, cert Certificate, caPub ed25519.PublicKey, initiator bool) (*SecureConn, error) {
	curve := ecdh.X25519()
	ephPriv, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("handshake keygen: %w", err)
	}
	ephPub := ephPriv.PublicKey().Bytes()

	var peer *handshakeMsg
	var initEph, respEph []byte
	if initiator {
		// Round 1: send cert + eph.
		if err := raw.Send((&handshakeMsg{cert: cert, ephPub: ephPub}).marshal()); err != nil {
			return nil, err
		}
		data, err := recvWithTimeout(raw)
		if err != nil {
			return nil, err
		}
		peer, err = unmarshalHandshake(data)
		if err != nil {
			return nil, err
		}
		initEph, respEph = ephPub, peer.ephPub
		// Round 3: prove possession of our identity key over the transcript.
		final := &handshakeMsg{cert: cert, ephPub: ephPub, sig: id.Sign(transcript(initEph, respEph))}
		if err := raw.Send(final.marshal()); err != nil {
			return nil, err
		}
	} else {
		data, err := recvWithTimeout(raw)
		if err != nil {
			return nil, err
		}
		peer, err = unmarshalHandshake(data)
		if err != nil {
			return nil, err
		}
		initEph, respEph = peer.ephPub, ephPub
		reply := &handshakeMsg{cert: cert, ephPub: ephPub, sig: id.Sign(transcript(initEph, respEph))}
		if err := raw.Send(reply.marshal()); err != nil {
			return nil, err
		}
		final, err := recvWithTimeout(raw)
		if err != nil {
			return nil, err
		}
		fm, err := unmarshalHandshake(final)
		if err != nil {
			return nil, err
		}
		peer.sig = fm.sig
	}

	if !peer.cert.Verify(caPub) {
		return nil, ErrBadCert
	}
	if !ed25519.Verify(peer.cert.Pub, transcript(initEph, respEph), peer.sig) {
		return nil, ErrBadHandshake
	}

	peerKey, err := curve.NewPublicKey(peer.ephPub)
	if err != nil {
		return nil, fmt.Errorf("peer ephemeral key: %w", err)
	}
	shared, err := ephPriv.ECDH(peerKey)
	if err != nil {
		return nil, fmt.Errorf("ecdh: %w", err)
	}
	ikSend, ikRecv := deriveKeys(shared, initEph, respEph, initiator)
	sendAEAD, err := newAEAD(ikSend)
	if err != nil {
		return nil, err
	}
	recvAEAD, err := newAEAD(ikRecv)
	if err != nil {
		return nil, err
	}
	lossy := false
	if lt, ok := raw.(LossyTransport); ok {
		lossy = lt.Lossy()
	}
	return &SecureConn{
		raw:      raw,
		peerName: peer.cert.Name,
		lossy:    lossy,
		sendAEAD: sendAEAD,
		recvAEAD: recvAEAD,
	}, nil
}

func deriveKeys(shared, initEph, respEph []byte, initiator bool) (sendKey, recvKey []byte) {
	mix := func(label byte) []byte {
		h := sha256.New()
		h.Write(shared)
		h.Write(initEph)
		h.Write(respEph)
		h.Write([]byte{label})
		return h.Sum(nil)
	}
	i2r := mix(1) // initiator → responder
	r2i := mix(2)
	if initiator {
		return i2r, r2i
	}
	return r2i, i2r
}

func newAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key[:32])
	if err != nil {
		return nil, fmt.Errorf("aead: %w", err)
	}
	return cipher.NewGCM(block)
}

// seal encrypts one encoded message under the current send counter; callers
// hold sendMu.
func (s *SecureConn) seal(plain []byte) []byte {
	nonce := make([]byte, 12)
	binary.BigEndian.PutUint64(nonce[4:], s.sendCtr)
	return s.sendAEAD.Seal(nonce, nonce, plain, nil)
}

// Send encrypts and transmits one OpenFlow message. sendMu is held until
// the transport has taken the frame, so concurrent senders' frames leave in
// counter order: a reliable transport's peer accepts nothing else, and a
// lossy one's replay window drops a frame that falls 64 counters behind.
func (s *SecureConn) Send(m Message) error {
	plain := Encode(m)
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	ct := s.seal(plain)
	s.sendCtr++
	// A peer with room takes the frame at once. Only a full peer makes the
	// send block, and sendStalled tells TrySend not to queue behind it.
	if sent, err := s.raw.TrySend(ct); sent || err != nil {
		return err
	}
	s.sendStalled.Store(true)
	defer s.sendStalled.Store(false)
	return s.raw.Send(ct)
}

// TrySend encrypts and transmits one OpenFlow message without blocking;
// sent reports whether the peer accepted it. The AEAD nonce counter only
// advances on accepted sends, so a dropped frame cannot desynchronize the
// receiver's replay window (the discarded ciphertext is never transmitted,
// so reusing its nonce for the next frame reveals nothing).
func (s *SecureConn) TrySend(m Message) (sent bool, err error) {
	plain := Encode(m)
	// Yield past a sender that is handing its frame to a peer with room,
	// but never wait behind one blocked on a full peer: this frame would
	// not fit either, which is exactly the case TrySend reports as unsent.
	for !s.sendMu.TryLock() {
		if s.sendStalled.Load() {
			return false, nil
		}
		runtime.Gosched()
	}
	defer s.sendMu.Unlock()
	sent, err = s.raw.TrySend(s.seal(plain))
	if sent {
		s.sendCtr++
	}
	return sent, err
}

// Recv receives and decrypts the next OpenFlow message. On a reliable
// transport every counter must arrive in order; anything else ends the
// session. On a lossy transport (real UDP) a 64-counter sliding window
// behind the high-water mark accepts a late frame once; a duplicate, or a
// frame older than the window, is dropped and counted, and Recv reads the
// next frame. The window moves only for a frame that authenticates.
func (s *SecureConn) Recv() (Message, error) {
	for {
		data, err := s.raw.Recv()
		if err != nil {
			return nil, err
		}
		if len(data) < 12 {
			return nil, ErrShortMessage
		}
		plain, fresh, err := s.open(data[:12], data[12:])
		if err != nil {
			return nil, err
		}
		if !fresh {
			continue
		}
		m, _, err := Decode(plain)
		return m, err
	}
}

// open checks one frame's counter against the replay state, decrypts it,
// and only then records the counter. fresh is false for a frame a lossy
// transport's window drops.
func (s *SecureConn) open(nonce, ct []byte) (plain []byte, fresh bool, err error) {
	s.recvMu.Lock()
	defer s.recvMu.Unlock()
	got := binary.BigEndian.Uint64(nonce[4:])
	if !s.lossy && got != s.recvCtr {
		return nil, false, fmt.Errorf("openflow: nonce replay/reorder (got %d want %d)", got, s.recvCtr)
	}
	if got < s.recvCtr {
		age := s.recvCtr - 1 - got
		if age >= 64 || s.recvWin&(1<<age) != 0 {
			s.recvReplays++
			return nil, false, nil
		}
	}
	plain, err = s.recvAEAD.Open(nil, nonce, ct, nil)
	if err != nil {
		return nil, false, fmt.Errorf("openflow: decrypt: %w", err)
	}
	if got < s.recvCtr {
		s.recvWin |= 1 << (s.recvCtr - 1 - got)
		s.recvLost--
		return plain, true, nil
	}
	if shift := got - s.recvCtr + 1; shift < 64 {
		s.recvWin = s.recvWin<<shift | 1
	} else {
		s.recvWin = 1
	}
	s.recvLost += got - s.recvCtr
	s.recvCtr = got + 1
	return plain, true, nil
}

// Close tears down the underlying connection.
func (s *SecureConn) Close() { s.raw.Close() }

// ConnectSecure is a convenience that wires an in-memory Pipe and runs both
// handshake sides concurrently, returning the two authenticated ends.
func ConnectSecure(a *Identity, aCert Certificate, b *Identity, bCert Certificate, caPub ed25519.PublicKey) (*SecureConn, *SecureConn, error) {
	rawA, rawB := Pipe()
	return ConnectSecureOver(rawA, rawB, a, aCert, b, bCert, caPub)
}
