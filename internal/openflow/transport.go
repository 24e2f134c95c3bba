package openflow

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Transport is a duplex message-oriented connection the secure channel runs
// over. The in-memory Pipe (RawConn) is the in-process instance; UDPTransport
// carries the same messages over real loopback UDP sockets so a lab
// deployment exercises genuine socket I/O between components.
type Transport interface {
	// Send transmits one message, blocking if the peer is slow.
	Send(data []byte) error
	// TrySend transmits one message without blocking; sent reports whether
	// the message was accepted (best-effort traffic such as notification
	// pushes uses it).
	TrySend(data []byte) (sent bool, err error)
	// Recv blocks for the next message; io.EOF after close.
	Recv() ([]byte, error)
	// Close tears the connection down; both ends' Recv unblock.
	Close()
}

// LossyTransport marks a transport whose delivery is best-effort (datagrams
// may be dropped by the network or socket buffers). The secure channel
// relaxes its strict AEAD-counter equality check to forward-monotonicity on
// such transports: a counter jump is recorded as loss, while a counter
// regression is still rejected as a replay.
type LossyTransport interface {
	Transport
	Lossy() bool
}

// maxUDPMessage bounds one encrypted message to what a single UDP datagram
// can carry (65507 minus the 12-byte nonce prefix, rounded down).
const maxUDPMessage = 65000

// ErrMessageTooLarge reports a message that does not fit one UDP datagram.
var ErrMessageTooLarge = errors.New("openflow: message exceeds one UDP datagram")

// udpSocketBuffer sizes the kernel send/receive buffers. Control-plane
// bursts (flow-monitor storms, parallel poll replies) must be absorbed by
// the socket, not dropped: a drop costs the session a resync.
const udpSocketBuffer = 4 << 20

// UDPTransport is a Transport over one bound UDP socket exchanging
// datagrams with a fixed peer address. One datagram carries exactly one
// message. Delivery is genuinely best-effort — this is a real socket, and
// the kernel will drop datagrams under buffer pressure — so it implements
// LossyTransport and the secure channel treats counter gaps as loss.
type UDPTransport struct {
	conn *net.UDPConn
	peer *net.UDPAddr

	mu     sync.Mutex
	closed bool
}

// Lossy marks UDP delivery as best-effort.
func (u *UDPTransport) Lossy() bool { return true }

// Send transmits one datagram to the peer.
func (u *UDPTransport) Send(data []byte) error {
	if len(data) > maxUDPMessage {
		return fmt.Errorf("%w (%d bytes)", ErrMessageTooLarge, len(data))
	}
	_, err := u.conn.WriteToUDP(data, u.peer)
	if err != nil {
		if u.isClosed() {
			return ErrChannelClosed
		}
		return err
	}
	return nil
}

// TrySend transmits one datagram best-effort. UDP writes never block on the
// receiver, so this is Send with oversized messages counted as "not sent"
// rather than an error.
func (u *UDPTransport) TrySend(data []byte) (bool, error) {
	if len(data) > maxUDPMessage {
		return false, nil
	}
	if err := u.Send(data); err != nil {
		if errors.Is(err, ErrChannelClosed) {
			return false, ErrChannelClosed
		}
		// A transient kernel refusal (e.g. ENOBUFS) is a drop, not a
		// channel failure — exactly the loss best-effort traffic tolerates.
		return false, nil
	}
	return true, nil
}

// Recv blocks for the next datagram from the peer. Datagrams from any other
// source address are discarded: the secure channel's AEAD rejects forgeries
// anyway, but filtering here keeps off-path noise out of the decrypt path.
func (u *UDPTransport) Recv() ([]byte, error) {
	buf := make([]byte, maxUDPMessage+12)
	for {
		n, from, err := u.conn.ReadFromUDP(buf)
		if err != nil {
			if u.isClosed() {
				return nil, io.EOF
			}
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				continue
			}
			return nil, io.EOF
		}
		if from == nil || !from.IP.Equal(u.peer.IP) || from.Port != u.peer.Port {
			continue
		}
		out := make([]byte, n)
		copy(out, buf[:n])
		return out, nil
	}
}

// RecvTimeout receives one datagram from the peer with a deadline; a silent
// peer surfaces as an error instead of a hang. Datagrams from other source
// addresses are rejected as in Recv.
func (u *UDPTransport) RecvTimeout(d time.Duration) ([]byte, error) {
	_ = u.conn.SetReadDeadline(time.Now().Add(d))
	defer func() { _ = u.conn.SetReadDeadline(time.Time{}) }()
	buf := make([]byte, maxUDPMessage+12)
	n, from, err := u.conn.ReadFromUDP(buf)
	if err != nil {
		return nil, fmt.Errorf("openflow: bounded receive: %w", err)
	}
	if from == nil || !from.IP.Equal(u.peer.IP) || from.Port != u.peer.Port {
		return nil, errors.New("openflow: datagram from unexpected peer")
	}
	out := make([]byte, n)
	copy(out, buf[:n])
	return out, nil
}

// Close shuts the socket down; a blocked Recv unblocks with EOF.
func (u *UDPTransport) Close() {
	u.mu.Lock()
	already := u.closed
	u.closed = true
	u.mu.Unlock()
	if !already {
		_ = u.conn.Close()
	}
}

func (u *UDPTransport) isClosed() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.closed
}

// newUDPSocket binds one loopback UDP socket with deep kernel buffers.
func newUDPSocket() (*net.UDPConn, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("openflow: bind udp: %w", err)
	}
	// Best effort: some kernels clamp these, and a clamped buffer only
	// raises the loss rate the channel already tolerates.
	_ = conn.SetReadBuffer(udpSocketBuffer)
	_ = conn.SetWriteBuffer(udpSocketBuffer)
	return conn, nil
}

// UDPPipe returns the two ends of a duplex connection over a pair of real
// loopback UDP sockets — the socket-backed equivalent of Pipe().
func UDPPipe() (*UDPTransport, *UDPTransport, error) {
	ca, err := newUDPSocket()
	if err != nil {
		return nil, nil, err
	}
	cb, err := newUDPSocket()
	if err != nil {
		_ = ca.Close()
		return nil, nil, err
	}
	a := &UDPTransport{conn: ca, peer: cb.LocalAddr().(*net.UDPAddr)}
	b := &UDPTransport{conn: cb, peer: ca.LocalAddr().(*net.UDPAddr)}
	return a, b, nil
}

// ConnectSecureOver runs the authenticated handshake across an established
// transport pair (client side on a, server side on b), returning the two
// secure ends. ConnectSecure is the Pipe()-backed convenience; deployments
// bringing components up over real sockets use this with UDPPipe().
func ConnectSecureOver(a, b Transport, aID *Identity, aCert Certificate, bID *Identity, bCert Certificate, caPub ed25519.PublicKey) (*SecureConn, *SecureConn, error) {
	type result struct {
		conn *SecureConn
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		conn, err := SecureServer(b, bID, bCert, caPub)
		ch <- result{conn, err}
	}()
	connA, errA := SecureClient(a, aID, aCert, caPub)
	resB := <-ch
	if errA != nil {
		if resB.conn != nil {
			resB.conn.Close()
		}
		return nil, nil, errA
	}
	if resB.err != nil {
		if connA != nil {
			connA.Close()
		}
		return nil, nil, resB.err
	}
	return connA, resB.conn, nil
}

// handshakeTimeout bounds one handshake round over a lossy transport; a
// lost handshake datagram surfaces as an error instead of a hang.
const handshakeTimeout = 5 * time.Second

// deadlineRecver is a transport with a bounded receive (the UDP transports
// and mux conns implement it; wrappers that decorate them should forward it
// so handshakes over them stay bounded too).
type deadlineRecver interface {
	RecvTimeout(d time.Duration) ([]byte, error)
}

// recvWithTimeout receives one message with a deadline when the transport
// supports it (UDP); in-memory pipes block indefinitely as before.
func recvWithTimeout(t Transport) ([]byte, error) {
	if dr, ok := t.(deadlineRecver); ok {
		return dr.RecvTimeout(handshakeTimeout)
	}
	return t.Recv()
}
