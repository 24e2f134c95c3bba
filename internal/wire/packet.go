package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// EtherType values used by the model.
const (
	EthTypeIPv4 uint16 = 0x0800
	EthTypeVLAN uint16 = 0x8100
	EthTypeLLDP uint16 = 0x88CC
)

// IP protocol numbers.
const (
	IPProtoICMP uint8 = 1
	IPProtoTCP  uint8 = 6
	IPProtoUDP  uint8 = 17
)

// PortRVaaSV2 is the RVaaS magic header value (paper §IV-A3: "client
// messages have distinct properties (e.g., destination address, VLAN tag,
// etc.) that allow them to be matched at the (ingress) switches and
// reported to the controller"): the UDP destination port of client → RVaaS
// envelope frames, and the source port of the RVaaS → client envelopes
// (replies, pushes, auth challenges) injected via Packet-Out. The
// envelope's Op selects the operation.
const PortRVaaSV2 uint16 = 0x5AAB

// Packet is the in-model representation of a frame: the matchable fields
// plus opaque payload. MAC addresses are stored in the low 48 bits.
type Packet struct {
	EthDst  uint64
	EthSrc  uint64
	EthType uint16
	VLAN    uint16 // 12-bit VLAN ID; 0 = untagged
	IPSrc   uint32
	IPDst   uint32
	IPProto uint8
	TTL     uint8
	L4Src   uint16
	L4Dst   uint16
	Payload []byte
}

// Clone returns a deep copy of the packet.
func (p *Packet) Clone() *Packet {
	out := *p
	out.Payload = append([]byte(nil), p.Payload...)
	return &out
}

// IPString formats a uint32 IPv4 address dotted-quad.
func IPString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// IPv4 builds a uint32 address from four octets.
func IPv4(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

// Frame sizes of the on-wire encoding.
const (
	ethHeaderLen  = 14
	vlanTagLen    = 4
	ipv4HeaderLen = 20
	udpHeaderLen  = 8
)

// Errors returned by Unmarshal.
var (
	ErrTruncated   = errors.New("wire: truncated frame")
	ErrBadChecksum = errors.New("wire: bad IPv4 header checksum")
	ErrNotIPv4     = errors.New("wire: not an IPv4 frame")
)

// Marshal encodes the packet as Ethernet[+802.1Q]/IPv4/UDP bytes. Non-IPv4
// EthTypes (LLDP) are encoded as Ethernet + raw payload.
func (p *Packet) Marshal() []byte {
	ethLen := ethHeaderLen
	if p.VLAN != 0 {
		ethLen += vlanTagLen
	}
	var buf []byte
	if p.EthType == EthTypeIPv4 {
		buf = make([]byte, ethLen+ipv4HeaderLen+udpHeaderLen+len(p.Payload))
	} else {
		buf = make([]byte, ethLen+len(p.Payload))
	}
	putMAC(buf[0:6], p.EthDst)
	putMAC(buf[6:12], p.EthSrc)
	off := 12
	if p.VLAN != 0 {
		binary.BigEndian.PutUint16(buf[off:], EthTypeVLAN)
		binary.BigEndian.PutUint16(buf[off+2:], p.VLAN&0x0fff)
		off += 4
	}
	binary.BigEndian.PutUint16(buf[off:], p.EthType)
	off += 2

	if p.EthType != EthTypeIPv4 {
		copy(buf[off:], p.Payload)
		return buf
	}

	ip := buf[off : off+ipv4HeaderLen]
	ip[0] = 0x45 // version 4, IHL 5
	totalLen := ipv4HeaderLen + udpHeaderLen + len(p.Payload)
	binary.BigEndian.PutUint16(ip[2:], uint16(totalLen))
	ip[8] = p.TTL
	ip[9] = p.IPProto
	binary.BigEndian.PutUint32(ip[12:], p.IPSrc)
	binary.BigEndian.PutUint32(ip[16:], p.IPDst)
	binary.BigEndian.PutUint16(ip[10:], ipChecksum(ip))
	off += ipv4HeaderLen

	udp := buf[off : off+udpHeaderLen]
	binary.BigEndian.PutUint16(udp[0:], p.L4Src)
	binary.BigEndian.PutUint16(udp[2:], p.L4Dst)
	binary.BigEndian.PutUint16(udp[4:], uint16(udpHeaderLen+len(p.Payload)))
	off += udpHeaderLen

	copy(buf[off:], p.Payload)
	return buf
}

// Unmarshal decodes an Ethernet[+802.1Q]/IPv4/UDP frame produced by Marshal.
// Non-IPv4 frames decode the remainder as payload.
func Unmarshal(data []byte) (*Packet, error) {
	if len(data) < ethHeaderLen {
		return nil, ErrTruncated
	}
	p := &Packet{
		EthDst: getMAC(data[0:6]),
		EthSrc: getMAC(data[6:12]),
	}
	off := 12
	et := binary.BigEndian.Uint16(data[off:])
	off += 2
	if et == EthTypeVLAN {
		if len(data) < off+4 {
			return nil, ErrTruncated
		}
		p.VLAN = binary.BigEndian.Uint16(data[off:]) & 0x0fff
		et = binary.BigEndian.Uint16(data[off+2:])
		off += 4
	}
	p.EthType = et

	if et != EthTypeIPv4 {
		p.Payload = append([]byte(nil), data[off:]...)
		return p, nil
	}
	if len(data) < off+ipv4HeaderLen+udpHeaderLen {
		return nil, ErrTruncated
	}
	ip := data[off : off+ipv4HeaderLen]
	if ip[0] != 0x45 {
		// Version must be 4 and IHL must be 5: Marshal never emits IP
		// options, so a longer header would shift the UDP fields and
		// payload — parsing it with the fixed offsets would misread
		// attacker-chosen option bytes as ports and payload.
		return nil, ErrNotIPv4
	}
	if ipChecksumVerify(ip) != 0 {
		return nil, ErrBadChecksum
	}
	p.TTL = ip[8]
	p.IPProto = ip[9]
	p.IPSrc = binary.BigEndian.Uint32(ip[12:])
	p.IPDst = binary.BigEndian.Uint32(ip[16:])
	off += ipv4HeaderLen

	udp := data[off : off+udpHeaderLen]
	p.L4Src = binary.BigEndian.Uint16(udp[0:])
	p.L4Dst = binary.BigEndian.Uint16(udp[2:])
	off += udpHeaderLen

	p.Payload = append([]byte(nil), data[off:]...)
	return p, nil
}

func putMAC(dst []byte, mac uint64) {
	dst[0] = byte(mac >> 40)
	dst[1] = byte(mac >> 32)
	dst[2] = byte(mac >> 24)
	dst[3] = byte(mac >> 16)
	dst[4] = byte(mac >> 8)
	dst[5] = byte(mac)
}

func getMAC(src []byte) uint64 {
	return uint64(src[0])<<40 | uint64(src[1])<<32 | uint64(src[2])<<24 |
		uint64(src[3])<<16 | uint64(src[4])<<8 | uint64(src[5])
}

// ipChecksum computes the IPv4 header checksum with the checksum field
// zeroed.
func ipChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i < len(hdr); i += 2 {
		if i == 10 {
			continue // checksum field treated as zero
		}
		sum += uint32(binary.BigEndian.Uint16(hdr[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// ipChecksumVerify returns 0 for a header with a valid checksum.
func ipChecksumVerify(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i < len(hdr); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(hdr[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// IsRVaaSV2 reports whether the packet carries a client envelope for RVaaS
// (the magic header the ingress switch rule matches on).
func (p *Packet) IsRVaaSV2() bool {
	return p.EthType == EthTypeIPv4 && p.IPProto == IPProtoUDP && p.L4Dst == PortRVaaSV2
}

// IsRVaaSV2Reply reports whether the packet is an envelope injected by
// RVaaS toward a client (reply, asynchronous push or auth challenge).
func (p *Packet) IsRVaaSV2Reply() bool {
	return p.EthType == EthTypeIPv4 && p.IPProto == IPProtoUDP && p.L4Src == PortRVaaSV2
}
