package history

// All returns a copy of every retained record in append order.
func (l *ViolationLog) All() []Violation {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Violation, l.n)
	for i := 0; i < l.n; i++ {
		out[i] = l.at(i)
	}
	return out
}

// Len returns the number of retained records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.records)
}
