package history

import "time"

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

// Records returns a copy of the retained records, oldest commit first.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, s.n)
	for i := range out {
		out[i] = *s.at(i)
	}
	return out
}

// Lifetime returns how long the churned rule was installed.
func (c Churn) Lifetime() time.Duration { return c.RemovedAt.Sub(c.AddedAt) }
