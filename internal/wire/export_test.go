package wire

import "fmt"

// Pending returns the number of in-flight chains.
func (ra *Reassembler) Pending() int {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	return len(ra.chains)
}

// PacketBits converts a packet's matchable fields into the concrete bit
// slice (index 0 = LSB of the header-space vector), read straight from the
// field table: the reference PacketHeader is checked against.
func PacketBits(p *Packet) []byte {
	bits := make([]byte, HeaderWidth)
	for _, f := range Fields() {
		s, v := fieldSpecs[f], p.Field(f)
		for i := 0; i < s.width; i++ {
			bits[s.offset+i] = byte(v >> uint(i) & 1)
		}
	}
	return bits
}

// String names the op.
func (op Op) String() string {
	switch op {
	case OpQuery:
		return "query"
	case OpQueryResponse:
		return "query-response"
	case OpUnsubscribe:
		return "unsubscribe"
	case OpNotify:
		return "notify"
	case OpBatchSubscribe:
		return "batch-subscribe"
	case OpBatchReply:
		return "batch-reply"
	case OpSessionResume:
		return "session-resume"
	case OpSessionResumeReply:
		return "session-resume-reply"
	case OpChunk:
		return "chunk"
	case OpAuthChallenge:
		return "auth-challenge"
	case OpAuthReply:
		return "auth-reply"
	case OpNotifyBatch:
		return "notify-batch"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}
