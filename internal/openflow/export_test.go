package openflow

import "net"

// LocalAddr returns the bound socket address.
func (u *UDPTransport) LocalAddr() *net.UDPAddr {
	return u.conn.LocalAddr().(*net.UDPAddr)
}
