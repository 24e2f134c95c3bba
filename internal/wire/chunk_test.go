package wire

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"
)

func bigEnvelope(bodyLen int) *Envelope {
	body := make([]byte, bodyLen)
	for i := range body {
		body[i] = byte(i * 7)
	}
	return &Envelope{
		Version:       EnvelopeVersion,
		Op:            OpBatchSubscribe,
		CorrelationID: 0xBEEF,
		SessionID:     0x5E55,
		Body:          body,
	}
}

func TestChunkEnvelopeSingleFrame(t *testing.T) {
	env := bigEnvelope(100)
	out, err := ChunkEnvelope(env, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != env {
		t.Fatalf("small envelope must pass through unchunked, got %d frames", len(out))
	}
}

func TestChunkEnvelopeRoundtrip(t *testing.T) {
	env := bigEnvelope(5000)
	budget := 300
	chunks, err := ChunkEnvelope(env, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("expected multiple chunks, got %d", len(chunks))
	}
	ra := NewReassembler(4)
	for i, ce := range chunks {
		if got := len(ce.Marshal()); got > budget {
			t.Fatalf("chunk %d marshals to %d bytes, budget %d", i, got, budget)
		}
		if ce.Op != OpChunk || ce.CorrelationID != env.CorrelationID || ce.SessionID != env.SessionID {
			t.Fatalf("chunk %d header drifted: %+v", i, ce)
		}
		// Each frame must survive the strict envelope codec.
		back, err := UnmarshalEnvelope(ce.Marshal())
		if err != nil {
			t.Fatalf("chunk %d does not re-decode: %v", i, err)
		}
		done, err := ra.Accept(1, back)
		if err != nil {
			t.Fatalf("chunk %d rejected: %v", i, err)
		}
		if i < len(chunks)-1 {
			if done != nil {
				t.Fatalf("chain completed early at chunk %d", i)
			}
		} else if done == nil {
			t.Fatal("chain did not complete on the last chunk")
		} else {
			if done.Op != env.Op || done.CorrelationID != env.CorrelationID ||
				done.SessionID != env.SessionID || !bytes.Equal(done.Body, env.Body) {
				t.Fatal("reassembled envelope differs from the original")
			}
		}
	}
	if ra.Pending() != 0 || ra.Dropped() != 0 {
		t.Fatalf("completed chain: pending %d, dropped %d, want 0 and 0", ra.Pending(), ra.Dropped())
	}
}

func TestChunkOutOfOrderReassembly(t *testing.T) {
	env := bigEnvelope(2000)
	chunks, err := ChunkEnvelope(env, 300)
	if err != nil {
		t.Fatal(err)
	}
	ra := NewReassembler(4)
	var done *Envelope
	// Deliver in reverse: UDP gives no ordering guarantee.
	for i := len(chunks) - 1; i >= 0; i-- {
		var err error
		var d *Envelope
		d, err = ra.Accept(9, chunks[i])
		if err != nil {
			t.Fatalf("chunk %d rejected: %v", i, err)
		}
		if d != nil {
			done = d
		}
	}
	if done == nil || !bytes.Equal(done.Body, env.Body) {
		t.Fatal("out-of-order chain did not reassemble to the original body")
	}
}

func TestChunkTornChain(t *testing.T) {
	a, err := ChunkEnvelope(bigEnvelope(2000), 300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChunkEnvelope(bigEnvelope(4000), 300) // same corr id, different Total
	if err != nil {
		t.Fatal(err)
	}
	ra := NewReassembler(4)
	if _, err := ra.Accept(1, a[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := ra.Accept(1, b[1]); err != ErrTornChain {
		t.Fatalf("mismatched Total accepted: err = %v, want ErrTornChain", err)
	}
	if ra.Pending() != 0 || ra.Dropped() != 1 {
		t.Fatalf("torn chain not discarded and counted: pending %d, dropped %d", ra.Pending(), ra.Dropped())
	}
	// After the tear the sender can start over cleanly.
	for i, ce := range b {
		done, err := ra.Accept(1, ce)
		if err != nil {
			t.Fatalf("retry chunk %d rejected: %v", i, err)
		}
		if i == len(b)-1 && done == nil {
			t.Fatal("retried chain did not complete")
		}
	}
}

func TestChunkDuplicateContinuationID(t *testing.T) {
	chunks, err := ChunkEnvelope(bigEnvelope(2000), 300)
	if err != nil {
		t.Fatal(err)
	}
	ra := NewReassembler(4)
	if _, err := ra.Accept(1, chunks[0]); err != nil {
		t.Fatal(err)
	}
	// The same fragment position arriving again under one continuation id
	// (replay, or a second logical envelope reusing the id) poisons the
	// chain.
	if _, err := ra.Accept(1, chunks[0]); err != ErrDuplicateChunk {
		t.Fatalf("duplicate fragment accepted: err = %v, want ErrDuplicateChunk", err)
	}
	if ra.Pending() != 0 || ra.Dropped() != 1 {
		t.Fatalf("poisoned chain not discarded and counted: pending %d, dropped %d", ra.Pending(), ra.Dropped())
	}
	// Distinct origins never collide, even with equal continuation ids.
	if _, err := ra.Accept(1, chunks[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := ra.Accept(2, chunks[0]); err != nil {
		t.Fatalf("distinct origin with same continuation id rejected: %v", err)
	}
}

func TestChunkChainEviction(t *testing.T) {
	ra := NewReassembler(2)
	for corr := uint64(1); corr <= 3; corr++ {
		env := bigEnvelope(2000)
		env.CorrelationID = corr
		chunks, err := ChunkEnvelope(env, 300)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ra.Accept(1, chunks[0]); err != nil {
			t.Fatal(err)
		}
	}
	if ra.Pending() != 2 || ra.Dropped() != 1 {
		t.Fatalf("pending chains = %d, dropped = %d, want 2 and 1 (oldest evicted)", ra.Pending(), ra.Dropped())
	}
}

func TestChunkRejectsMalformed(t *testing.T) {
	env := &Envelope{Version: EnvelopeVersion, Op: OpQuery, CorrelationID: 1}
	ra := NewReassembler(4)
	if _, err := ra.Accept(1, env); err != ErrNotChunk {
		t.Fatalf("non-chunk accepted: %v", err)
	}
	bad := &Chunk{InnerOp: OpQuery, Index: 5, Total: 2, Fragment: []byte{1}}
	if _, err := UnmarshalChunk(bad.Marshal()); err != ErrChunkBounds {
		t.Fatalf("index >= total accepted: %v", err)
	}
	zero := &Chunk{InnerOp: OpQuery, Index: 0, Total: 0}
	if _, err := UnmarshalChunk(zero.Marshal()); err != ErrChunkBounds {
		t.Fatalf("total == 0 accepted: %v", err)
	}
}

// TestChunkBatchBudget is the acceptance gate for the frame budget: a
// 10⁴-invariant batch registration, marshaled as one logical envelope,
// must hit the wire as chunks none of which exceeds ChunkFrameBudget —
// and the whole chain must reassemble to the identical batch.
func TestChunkBatchBudget(t *testing.T) {
	req := &BatchSubscribeRequest{
		Version:      CurrentVersion,
		ClientID:     7,
		Nonce:        0xABCD,
		AnchorSwitch: 3,
		AnchorPort:   1,
		Signature:    bytes.Repeat([]byte{0xEE}, 64),
	}
	for i := 0; i < 10_000; i++ {
		req.Items = append(req.Items, BatchItem{
			Kind:        QueryPathLength,
			Param:       fmt.Sprintf("%d", 3+i%5),
			Constraints: []FieldConstraint{{Field: FieldIPDst, Value: uint64(i), Mask: 0xFFFFFFFF}},
		})
	}
	body := req.Marshal()
	env := &Envelope{Version: EnvelopeVersion, Op: OpBatchSubscribe,
		CorrelationID: req.Nonce, SessionID: 12, Body: body}
	if len(env.Marshal()) <= ChunkFrameBudget {
		t.Fatalf("batch of %d bytes unexpectedly fits one frame; test is vacuous", len(body))
	}
	chunks, err := ChunkEnvelope(env, 0)
	if err != nil {
		t.Fatal(err)
	}
	ra := NewReassembler(4)
	var done *Envelope
	for i, ce := range chunks {
		if got := len(ce.Marshal()); got > ChunkFrameBudget {
			t.Fatalf("chunk %d/%d is %d bytes, budget %d", i, len(chunks), got, ChunkFrameBudget)
		}
		// The full on-wire frame (L2/L3/L4 headers included) must stay
		// inside the 1280-byte minimum-MTU envelope.
		pkt := NewEnvelopePacket(0x020000000001, IPv4(10, 0, 0, 1), ce)
		if got := len(pkt.Marshal()); got > 1280 {
			t.Fatalf("chunk %d packet is %d bytes on the wire, exceeds 1280", i, got)
		}
		d, err := ra.Accept(1, ce)
		if err != nil {
			t.Fatalf("chunk %d rejected: %v", i, err)
		}
		if d != nil {
			done = d
		}
	}
	if done == nil {
		t.Fatal("chain did not complete")
	}
	back, err := UnmarshalBatchSubscribeRequest(done.Body)
	if err != nil {
		t.Fatalf("reassembled batch does not decode: %v", err)
	}
	if !bytes.Equal(back.Marshal(), body) {
		t.Fatal("reassembled batch differs from the original")
	}
	if !bytes.Equal(back.Signature, req.Signature) {
		t.Fatal("the one batch signature did not survive the chunk chain")
	}
}

// TestGoldenChunkFrame locks the chunk envelope encoding byte-for-byte,
// like the v1 golden frames lock the legacy protocol.
func TestGoldenChunkFrame(t *testing.T) {
	c := &Chunk{InnerOp: OpBatchSubscribe, Index: 1, Total: 3, Fragment: []byte{0xAA, 0xBB, 0xCC}}
	env := &Envelope{Version: EnvelopeVersion, Op: OpChunk,
		CorrelationID: 0x1122334455667788, SessionID: 0x99, Body: c.Marshal()}
	got := hex.EncodeToString(env.Marshal())
	want := "020d112233445566778800000000000000990000001007000000010000000300000003aabbcc"
	if got != want {
		t.Fatalf("chunk frame drifted from the golden bytes:\n got  %s\n want %s", got, want)
	}
	back, err := UnmarshalEnvelope(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	cb, err := UnmarshalChunk(back.Body)
	if err != nil {
		t.Fatal(err)
	}
	if cb.InnerOp != c.InnerOp || cb.Index != 1 || cb.Total != 3 || !bytes.Equal(cb.Fragment, c.Fragment) {
		t.Fatal("golden chunk decode mismatch")
	}
}
