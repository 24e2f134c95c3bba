package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// testBatch builds an n-item push batch shaped like a flip's: alternating
// violations and recoveries with the details the engine writes.
func testBatch(n int) *NotifyBatch {
	b := &NotifyBatch{
		Version: CurrentVersion, SnapshotID: 77,
		Signature: bytes.Repeat([]byte{0xAB}, 64), Quote: bytes.Repeat([]byte{0xCD}, 162),
	}
	for i := 0; i < n; i++ {
		it := NotifyItem{
			Event: NotifyViolation, Kind: QueryReachableDestinations, Status: StatusViolation,
			SubID: uint64(100 + i), Nonce: 0x1100000000000000 + uint64(i), Seq: uint64(1 + i%7),
			Detail: "no reachable destinations for scoped traffic",
		}
		if i%2 == 1 {
			it.Event, it.Status, it.Detail = NotifyRecovery, StatusOK, fmt.Sprintf("%d reachable endpoint(s)", 1+i%3)
		}
		b.Items = append(b.Items, it)
	}
	return b
}

func TestNotifyBatchRoundtrip(t *testing.T) {
	b := testBatch(3)
	back, err := UnmarshalNotifyBatch(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, back) {
		t.Fatalf("roundtrip mismatch:\n%+v\n%+v", b, back)
	}
	if !bytes.Equal(b.SigningBytes(), back.SigningBytes()) {
		t.Error("signing bytes not stable across a round trip")
	}
	for _, cut := range []int{0, 5, 20, len(b.Marshal()) - 1} {
		if _, err := UnmarshalNotifyBatch(b.Marshal()[:cut]); err == nil {
			t.Errorf("batch truncated to %d bytes accepted", cut)
		}
	}
	// What a subscriber receives for item 1: its own fields, the batch's
	// snapshot id and quote, and no signature of its own.
	want := &Notification{
		Version: CurrentVersion, Event: NotifyRecovery, Kind: QueryReachableDestinations, Status: StatusOK,
		SubID: 101, Nonce: 0x1100000000000001, Seq: 2, SnapshotID: 77,
		Detail: "2 reachable endpoint(s)", Quote: b.Quote,
	}
	if got := back.Notification(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("item 1 as a notification = %+v, want %+v", got, want)
	}
}

// TestNotifyBatchSigningDomain: the signed bytes are the domain tag plus the
// body as marshaled (so every item byte is covered), and no other
// server-signed body with the same leading fields produces them.
func TestNotifyBatchSigningDomain(t *testing.T) {
	b := testBatch(2)
	signing := b.SigningBytes()
	if !bytes.HasPrefix(signing, []byte(notifyBatchDomain)) {
		t.Fatalf("signing bytes start %q, want the %q tag", signing[:14], notifyBatchDomain)
	}
	body := b.Marshal()
	core := body[:len(body)-(2+len(b.Signature))-(2+len(b.Quote))]
	if !bytes.Equal(signing[len(notifyBatchDomain):], core) {
		t.Fatal("signed bytes after the tag are not the marshaled body")
	}
	if bytes.Contains(signing, b.Signature) {
		t.Error("signing bytes include the signature")
	}
	for i := range core {
		mutant := append([]byte(nil), body...)
		mutant[i] ^= 0x01
		if m, err := UnmarshalNotifyBatch(mutant); err == nil && bytes.Equal(m.SigningBytes(), signing) {
			t.Fatalf("flipping body byte %d left the signed bytes unchanged", i)
		}
	}

	it := b.Items[0]
	others := map[string][]byte{
		"notification": (&Notification{Version: b.Version, Event: it.Event, Kind: it.Kind, Status: it.Status,
			SubID: it.SubID, Nonce: it.Nonce, Seq: it.Seq, SnapshotID: b.SnapshotID, Detail: it.Detail}).SigningBytes(),
		"query response": (&QueryResponse{Version: b.Version, Kind: it.Kind, Nonce: b.SnapshotID,
			Status: it.Status, Detail: it.Detail, SnapshotID: b.SnapshotID}).SigningBytes(),
		"batch reply": (&BatchReply{Version: b.Version, Nonce: b.SnapshotID, SnapshotID: b.SnapshotID,
			Items: []BatchReplyItem{{SubID: it.SubID, Status: it.Status, Seq: it.Seq, Detail: it.Detail}}}).SigningBytes(),
		"batch query reply": (&BatchQueryReply{Version: b.Version, Nonce: b.SnapshotID, SnapshotID: b.SnapshotID}).SigningBytes(),
		"resume reply": (&SessionResumeReply{Version: b.Version, Nonce: b.SnapshotID, SnapshotID: b.SnapshotID,
			Entries: []ResumeVerdict{{SubID: it.SubID, Kind: it.Kind, Status: it.Status, Seq: it.Seq, Detail: it.Detail}}}).SigningBytes(),
	}
	for name, other := range others {
		if bytes.HasPrefix(other, []byte(notifyBatchDomain)) || bytes.Equal(other, signing) || bytes.Equal(other, core) {
			t.Errorf("%s signing bytes can stand in for a push batch's", name)
		}
	}
}

// TestNotifyBatchFraming: a lone transition ships as one unchunked frame of
// about the size a signed single notification had; a 257-item batch (one
// sub-churn flip) is a chain of frames inside the budget that reassembles to
// the bytes that were signed.
func TestNotifyBatchFraming(t *testing.T) {
	frame := func(b *NotifyBatch) []*Envelope {
		t.Helper()
		frames, err := ChunkEnvelope(&Envelope{Version: EnvelopeVersion, Op: OpNotifyBatch,
			CorrelationID: 0xC0FFEE, SessionID: 9, Body: b.Marshal()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return frames
	}

	lone := frame(testBatch(1))
	if len(lone) != 1 || lone[0].Op != OpNotifyBatch {
		t.Fatalf("1-item batch ships as %d frame(s) of op %v, want one unchunked notify-batch", len(lone), lone[0].Op)
	}
	if got := len(lone[0].Marshal()); got > 340 {
		t.Errorf("1-item batch envelope is %d bytes, want about a single notification's 313", got)
	}

	big := testBatch(257)
	chain := frame(big)
	if len(chain) < 2 {
		t.Fatalf("257-item batch of %d bytes fits %d frame; test is vacuous", len(big.Marshal()), len(chain))
	}
	ra := NewReassembler(4)
	var done *Envelope
	for i, fr := range chain {
		if got := len(fr.Marshal()); fr.Op != OpChunk || got > ChunkFrameBudget {
			t.Fatalf("frame %d/%d: op %v, %d bytes (budget %d)", i, len(chain), fr.Op, got, ChunkFrameBudget)
		}
		if got := len(NewEnvelopeReplyPacket(0x020000000001, IPv4(10, 0, 0, 1), fr).Marshal()); got > 1280 {
			t.Fatalf("frame %d is %d bytes on the wire, exceeds 1280", i, got)
		}
		d, err := ra.Accept(1, fr)
		if err != nil {
			t.Fatalf("frame %d rejected: %v", i, err)
		}
		if d != nil {
			done = d
		}
	}
	if done == nil || done.Op != OpNotifyBatch || done.SessionID != 9 {
		t.Fatalf("chain reassembled to %+v", done)
	}
	back, err := UnmarshalNotifyBatch(done.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.SigningBytes(), big.SigningBytes()) || !bytes.Equal(back.Signature, big.Signature) {
		t.Fatal("reassembled batch is not the one that was signed")
	}
}
