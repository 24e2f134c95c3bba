package headerspace

import (
	"fmt"
	"sort"
)

// PortID identifies a port in the reachability graph. The mapping from
// (node, physical port) to PortID is the caller's concern; see reach.go.
type PortID uint64

// Rule is one priority-ordered entry of a transfer function: packets in
// Match arriving on one of InPorts (empty = any) are rewritten by
// Mask/Value and emitted on OutPorts. Drop rules have no OutPorts.
type Rule struct {
	// Priority orders rules; higher matches first.
	Priority int
	// Match is the wildcard expression packets must satisfy.
	Match Header
	// InPorts restricts the rule to packets arriving on these ports.
	// Empty means any port.
	InPorts []PortID
	// Mask marks (with Bit1) the positions rewritten to Value's bits.
	// A zero-width Mask means no rewrite.
	Mask Header
	// Value holds the rewritten bits at positions where Mask is Bit1.
	Value Header
	// OutPorts lists the ports the rewritten packet is emitted on.
	// Empty means drop.
	OutPorts []PortID
}

// hasRewrite reports whether the rule rewrites any bit.
func (r *Rule) hasRewrite() bool {
	for _, w := range r.Mask.words {
		if onePairs(w) != 0 {
			return true
		}
	}
	return false
}

func (r *Rule) matchesPort(p PortID) bool {
	if len(r.InPorts) == 0 {
		return true
	}
	for _, ip := range r.InPorts {
		if ip == p {
			return true
		}
	}
	return false
}

// TransferFunction models one network box (switch) as a priority-ordered
// rule list over a fixed header width.
type TransferFunction struct {
	width int
	rules []Rule // kept sorted by Priority descending
}

// NewTransferFunction returns an empty transfer function for headers of the
// given width.
func NewTransferFunction(width int) *TransferFunction {
	return &TransferFunction{width: width}
}

// Width returns the header width the function operates on.
func (tf *TransferFunction) Width() int { return tf.width }

// Len returns the number of rules.
func (tf *TransferFunction) Len() int { return len(tf.rules) }

// AddRule inserts a rule keeping priority order (stable for equal
// priorities: earlier-added first).
func (tf *TransferFunction) AddRule(r Rule) error {
	if r.Match.width != tf.width {
		return fmt.Errorf("headerspace: rule match width %d != tf width %d", r.Match.width, tf.width)
	}
	if r.hasRewrite() && (r.Mask.width != tf.width || r.Value.width != tf.width) {
		return fmt.Errorf("headerspace: rewrite width mismatch")
	}
	idx := sort.Search(len(tf.rules), func(i int) bool {
		return tf.rules[i].Priority < r.Priority
	})
	tf.rules = append(tf.rules, Rule{})
	copy(tf.rules[idx+1:], tf.rules[idx:])
	tf.rules[idx] = r
	return nil
}

// Emission is one output of applying a transfer function: the packet space
// leaving on Port.
type Emission struct {
	Port  PortID
	Space Space
}

// Apply feeds the space `in`, arriving on port `on`, through the rule list
// and returns the emissions. Priority semantics: a packet is handled by the
// highest-priority rule matching it; lower-priority rules only see the
// remainder. Unmatched packets are dropped (OpenFlow table-miss without a
// miss rule).
//
// Ownership: every returned Emission.Space is freshly allocated and shares
// no terms with `in` or with any other emission, so callers may hand the
// spaces off without cloning. `in` itself is never mutated.
func (tf *TransferFunction) Apply(in Space, on PortID) []Emission {
	var out []Emission
	// No space operation below mutates its operands, so the running
	// remainder can alias `in` — no up-front deep copy needed.
	remaining := in
	for i := range tf.rules {
		r := &tf.rules[i] // a Rule is 19 words: ranging by value copies each
		if remaining.IsEmpty() {
			break
		}
		if !r.matchesPort(on) {
			continue
		}
		hit := remaining.IntersectHeader(r.Match)
		if hit.IsEmpty() {
			continue
		}
		remaining = remaining.SubtractHeader(r.Match)
		emitted := hit
		if r.hasRewrite() {
			emitted = rewriteSpace(hit, r.Mask, r.Value)
		}
		for i, p := range r.OutPorts {
			// `emitted` is fresh (built by IntersectHeader/rewriteSpace
			// above), so the first port takes it as-is; only multi-port
			// rules pay for clones of the extra copies.
			sp := emitted
			if i > 0 {
				sp = emitted.Clone()
			}
			out = append(out, Emission{Port: p, Space: sp})
		}
	}
	return out
}

// rewriteSpace applies the mask/value rewrite to every term.
func rewriteSpace(s Space, mask, value Header) Space {
	out := Space{width: s.width}
	for _, t := range s.terms {
		rw, err := t.Rewrite(mask, value)
		if err == nil && !rw.IsEmpty() {
			out.terms = append(out.terms, rw)
		}
	}
	return out
}
