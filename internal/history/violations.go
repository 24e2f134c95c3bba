package history

import (
	"sync"
	"time"
)

// EventKind classifies a standing-invariant verdict transition.
type EventKind uint8

// Verdict transitions.
const (
	// EventViolation marks an invariant transitioning OK → violated.
	EventViolation EventKind = iota + 1
	// EventRecovery marks the violated → OK transition.
	EventRecovery
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventViolation:
		return "violation"
	case EventRecovery:
		return "recovery"
	}
	return "event(?)"
}

// Violation is one recorded verdict transition of a standing invariant.
// The paper's forensic angle ("a slightly more complex service may also
// maintain some history of the recent past", §IV-C) extends naturally from
// raw snapshots to verification outcomes: the log shows not just what the
// configuration was, but when it stopped (and resumed) satisfying each
// client's invariants — evidence for attacks caught between client polls.
type Violation struct {
	At         time.Time
	Event      EventKind
	SubID      uint64
	ClientID   uint64
	Kind       string // invariant kind (query-kind name)
	Detail     string
	SnapshotID uint64
}

// ViolationLog is a bounded, append-ordered ring of verdict transitions.
// The backing array is allocated once at capacity; once full, each append
// overwrites the oldest record in place and bumps the dropped counter, so
// week-long adversarial campaigns run in constant memory. The zero value
// is unusable; use NewViolationLog.
type ViolationLog struct {
	mu      sync.Mutex
	ring    []Violation
	head    int    // index of the oldest retained record
	n       int    // retained count, n <= len(ring)
	total   uint64 // records ever appended
	dropped uint64 // records evicted to make room
}

// NewViolationLog returns a log retaining up to capacity records.
func NewViolationLog(capacity int) *ViolationLog {
	if capacity < 1 {
		capacity = 1
	}
	return &ViolationLog{ring: make([]Violation, capacity)}
}

// Append stores one transition, evicting the oldest record if full.
func (l *ViolationLog) Append(v Violation) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == len(l.ring) {
		l.ring[l.head] = v
		l.head = (l.head + 1) % len(l.ring)
		l.dropped++
	} else {
		l.ring[(l.head+l.n)%len(l.ring)] = v
		l.n++
	}
	l.total++
}

// Len returns the number of retained records.
func (l *ViolationLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Capacity returns the fixed retention limit.
func (l *ViolationLog) Capacity() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ring)
}

// Dropped returns how many records have been evicted to bound the log.
func (l *ViolationLog) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Appended returns the total number of records ever appended, retained or
// not. It is a monotone cursor: Since(Appended()) returns only records
// appended after this call.
func (l *ViolationLog) Appended() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

func (l *ViolationLog) at(i int) Violation {
	return l.ring[(l.head+i)%len(l.ring)]
}

// Since returns, in append order, the retained records whose append index
// is >= cursor (as returned by a prior Appended call). Records already
// evicted are silently absent — compare len(result) against Appended()-cursor
// to detect loss.
func (l *ViolationLog) Since(cursor uint64) []Violation {
	l.mu.Lock()
	defer l.mu.Unlock()
	oldest := l.total - uint64(l.n) // append index of ring[head]
	if cursor < oldest {
		cursor = oldest
	}
	if cursor >= l.total {
		return nil
	}
	out := make([]Violation, 0, l.total-cursor)
	for i := int(cursor - oldest); i < l.n; i++ {
		out = append(out, l.at(i))
	}
	return out
}

// PerSub returns the retained records of one subscription in append order.
func (l *ViolationLog) PerSub(subID uint64) []Violation {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Violation
	for i := 0; i < l.n; i++ {
		if v := l.at(i); v.SubID == subID {
			out = append(out, v)
		}
	}
	return out
}

// Open returns the subscriptions currently in the violated state: those
// whose latest retained transition is a violation without a later recovery.
func (l *ViolationLog) Open() []Violation {
	l.mu.Lock()
	defer l.mu.Unlock()
	latest := make(map[uint64]Violation)
	for i := 0; i < l.n; i++ {
		v := l.at(i)
		latest[v.SubID] = v
	}
	var out []Violation
	for i := 0; i < l.n; i++ { // keep append order
		v := l.at(i)
		if lv := latest[v.SubID]; lv == v && v.Event == EventViolation {
			out = append(out, v)
		}
	}
	return out
}
