package fabric

// LinkDeliveries returns the number of internal-link traversals so far.
func (f *Fabric) LinkDeliveries() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.delivered
}

// HostDeliveries returns the number of frames handed to host NICs.
func (f *Fabric) HostDeliveries() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hostRx
}
