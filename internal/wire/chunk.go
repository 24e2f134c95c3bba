package wire

// Chunked envelopes: protocol v2's continuation frames.
//
// A 10⁴-item batch registration is a ~600 KB logical body — two orders of
// magnitude past what one UDP frame carries. Rather than cap batch sizes
// (which reintroduces per-round-trip amortization limits) the envelope
// layer fragments: a logical envelope whose marshaled size exceeds the
// frame budget is split into OpChunk envelopes sharing one continuation
// CorrelationID, each small enough for the wire, and reassembled on the
// far side before the op dispatches.
//
// Authentication is untouched: the client signature lives INSIDE the
// logical body (e.g. BatchSubscribeRequest.Signature), so one signature
// covers the whole chunk chain and is verified exactly once, after
// reassembly. Chunks themselves are unsigned — a forged or corrupted
// fragment can only produce a body that fails the inner signature check.

import (
	"errors"
	"fmt"
	"sync"
)

// ChunkFrameBudget is the default upper bound, in bytes, on any marshaled
// envelope put on the wire. It keeps chunked frames inside a conservative
// path-MTU envelope (1280-byte IPv6 minimum minus transport headers).
const ChunkFrameBudget = 1200

// maxChunksPerChain bounds a single logical envelope's fragment count
// (≈5 MB at the default budget) so a hostile Total cannot reserve
// unbounded reassembly memory.
const maxChunksPerChain = 4096

// Chunk is the body of an OpChunk envelope: fragment Index of Total for
// the logical envelope whose op is InnerOp. The outer envelope's
// CorrelationID (the continuation id) and SessionID are those of the
// logical envelope and must match across the chain.
type Chunk struct {
	InnerOp  Op
	Index    uint32
	Total    uint32
	Fragment []byte
}

// Chunk codec errors.
var (
	errChunkTrailing = errors.New("wire: trailing bytes after chunk")
	// ErrNotChunk reports an envelope handed to a Reassembler whose op is
	// not OpChunk.
	ErrNotChunk = errors.New("wire: envelope is not a chunk")
	// ErrChunkBounds reports an out-of-range fragment position.
	ErrChunkBounds = errors.New("wire: chunk index/total out of bounds")
	// ErrTornChain reports a fragment inconsistent with its chain (total,
	// inner op or session mismatch): the chain is discarded.
	ErrTornChain = errors.New("wire: torn chunk chain")
	// ErrDuplicateChunk reports a fragment position arriving twice under
	// one continuation id — a replay or a reused continuation id; the
	// chain is discarded.
	ErrDuplicateChunk = errors.New("wire: duplicate chunk in chain")
)

// Marshal encodes the chunk body.
func (c *Chunk) Marshal() []byte {
	var w Writer
	w.U8(uint8(c.InnerOp))
	w.U32(c.Index)
	w.U32(c.Total)
	w.Bytes32(c.Fragment)
	return w.buf
}

// UnmarshalChunk decodes a chunk body. Like the envelope codec it is
// strict: trailing bytes are rejected.
func UnmarshalChunk(data []byte) (*Chunk, error) {
	r := Reader{buf: data}
	c := &Chunk{
		InnerOp: Op(r.U8()),
		Index:   r.U32(),
		Total:   r.U32(),
	}
	c.Fragment = r.Bytes32()
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, errChunkTrailing
	}
	if c.Total == 0 || c.Total > maxChunksPerChain || c.Index >= c.Total {
		return nil, ErrChunkBounds
	}
	return c, nil
}

// chunkOverhead is the marshaled size of a chunk envelope with an empty
// fragment: every byte of budget past it carries payload.
func chunkOverhead() int {
	env := Envelope{Version: EnvelopeVersion, Op: OpChunk}
	env.Body = (&Chunk{}).Marshal()
	return len(env.Marshal())
}

// ChunkEnvelope splits a logical v2 envelope into wire-sized frames. An
// envelope that already fits the budget is returned as-is (no chunk
// indirection); otherwise every returned envelope is an OpChunk frame of
// at most budget marshaled bytes, sharing the logical envelope's
// CorrelationID as the continuation id and its SessionID. budget <= 0
// selects ChunkFrameBudget.
func ChunkEnvelope(e *Envelope, budget int) ([]*Envelope, error) {
	if budget <= 0 {
		budget = ChunkFrameBudget
	}
	if len(e.Marshal()) <= budget {
		return []*Envelope{e}, nil
	}
	frag := budget - chunkOverhead()
	if frag < 1 {
		return nil, fmt.Errorf("wire: chunk budget %d below frame overhead", budget)
	}
	total := (len(e.Body) + frag - 1) / frag
	if total > maxChunksPerChain {
		return nil, fmt.Errorf("wire: body of %d bytes needs %d chunks, max %d",
			len(e.Body), total, maxChunksPerChain)
	}
	out := make([]*Envelope, 0, total)
	for i := 0; i < total; i++ {
		lo, hi := i*frag, (i+1)*frag
		if hi > len(e.Body) {
			hi = len(e.Body)
		}
		c := Chunk{InnerOp: e.Op, Index: uint32(i), Total: uint32(total), Fragment: e.Body[lo:hi]}
		out = append(out, &Envelope{
			Version:       EnvelopeVersion,
			Op:            OpChunk,
			CorrelationID: e.CorrelationID,
			SessionID:     e.SessionID,
			Body:          c.Marshal(),
		})
	}
	return out, nil
}

// chainKey identifies one in-flight chunk chain: the transport origin
// (caller-derived, e.g. client MAC⊕IP) plus the continuation id.
type chainKey struct {
	origin uint64
	corr   uint64
}

type chunkChain struct {
	innerOp   Op
	sessionID uint64
	total     uint32
	frags     [][]byte
	got       uint32
}

// Reassembler rebuilds logical envelopes from chunk chains. It is safe
// for concurrent use. Chains are bounded: past maxChains the oldest
// in-flight chain is evicted (a requester times out and retries; a push
// surfaces as a sequence gap), so a sender spraying fresh continuation ids
// cannot grow memory without bound. Dropped counts every chain discarded
// before it completed.
type Reassembler struct {
	mu      sync.Mutex
	max     int
	chains  map[chainKey]*chunkChain
	order   []chainKey
	dropped uint64
}

// NewReassembler returns a reassembler holding at most maxChains
// concurrent chains (<=0 selects 64).
func NewReassembler(maxChains int) *Reassembler {
	if maxChains <= 0 {
		maxChains = 64
	}
	return &Reassembler{max: maxChains, chains: make(map[chainKey]*chunkChain)}
}

// Accept folds one OpChunk envelope into its chain. It returns the
// reassembled logical envelope when the chain completes, nil while
// fragments are still outstanding, and an error (discarding the chain)
// on torn or duplicated chains.
func (ra *Reassembler) Accept(origin uint64, e *Envelope) (*Envelope, error) {
	if e.Op != OpChunk {
		return nil, ErrNotChunk
	}
	c, err := UnmarshalChunk(e.Body)
	if err != nil {
		return nil, err
	}
	key := chainKey{origin: origin, corr: e.CorrelationID}

	ra.mu.Lock()
	defer ra.mu.Unlock()
	ch, ok := ra.chains[key]
	if !ok {
		ch = &chunkChain{
			innerOp:   c.InnerOp,
			sessionID: e.SessionID,
			total:     c.Total,
			frags:     make([][]byte, c.Total),
		}
		ra.chains[key] = ch
		ra.order = append(ra.order, key)
		ra.evictLocked()
	}
	if ch.total != c.Total || ch.innerOp != c.InnerOp || ch.sessionID != e.SessionID {
		ra.dropLocked(key)
		ra.dropped++
		return nil, ErrTornChain
	}
	if ch.frags[c.Index] != nil {
		// The same position twice under one continuation id: either a
		// replayed fragment or a reused continuation id. Both poison the
		// chain — drop it rather than guess which body the sender meant.
		ra.dropLocked(key)
		ra.dropped++
		return nil, ErrDuplicateChunk
	}
	ch.frags[c.Index] = c.Fragment
	ch.got++
	if ch.got < ch.total {
		return nil, nil
	}
	ra.dropLocked(key)
	size := 0
	for _, f := range ch.frags {
		size += len(f)
	}
	body := make([]byte, 0, size)
	for _, f := range ch.frags {
		body = append(body, f...)
	}
	return &Envelope{
		Version:       EnvelopeVersion,
		Op:            ch.innerOp,
		CorrelationID: e.CorrelationID,
		SessionID:     ch.sessionID,
		Body:          body,
	}, nil
}

// Dropped counts chains discarded incomplete: evicted by the chain bound,
// torn, or poisoned by a duplicated fragment. A chain that merely never
// completes is counted when it is evicted.
func (ra *Reassembler) Dropped() uint64 {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	return ra.dropped
}

func (ra *Reassembler) dropLocked(key chainKey) {
	delete(ra.chains, key)
	for i, k := range ra.order {
		if k == key {
			ra.order = append(ra.order[:i], ra.order[i+1:]...)
			break
		}
	}
}

func (ra *Reassembler) evictLocked() {
	for len(ra.chains) > ra.max && len(ra.order) > 0 {
		oldest := ra.order[0]
		ra.order = ra.order[1:]
		delete(ra.chains, oldest)
		ra.dropped++
	}
}
