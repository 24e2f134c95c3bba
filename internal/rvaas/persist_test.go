package rvaas

import (
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/wire"
)

func testRecord(id uint64) SubscriptionRecord {
	return SubscriptionRecord{
		ID:           id,
		ClientID:     7,
		SessionID:    0x57E0 + id,
		Nonce:        100 + id,
		Kind:         wire.QueryIsolation,
		AnchorSwitch: 3,
		AnchorPort:   1,
		MAC:          0x020000000007,
		IP:           0x0A000007,
		Constraints:  []wire.FieldConstraint{{Field: wire.FieldIPDst, Value: 9, Mask: 0xFF}},
		Param:        "",
		Violated:     id%2 == 0,
		Detail:       "detail",
		Seq:          id,
		ClientKey:    []byte{1, 2, 3},
	}
}

func TestRecordCodecRoundtrip(t *testing.T) {
	rec := testRecord(5)
	back, op, err := unmarshalRecord(rec.marshal())
	if err != nil || op != recUpsert {
		t.Fatalf("decode: op=%d err=%v", op, err)
	}
	if !reflect.DeepEqual(&rec, back) {
		t.Fatalf("roundtrip mismatch:\n%+v\n%+v", rec, back)
	}
}

// TestGoldenStoreLog locks the subscription log byte-for-byte: one upsert
// and one remove record, each in its 32-bit length frame. A log a deployed
// controller wrote must keep opening after any refactor of the codec.
func TestGoldenStoreLog(t *testing.T) {
	rec := SubscriptionRecord{ID: 5, ClientID: 7, SessionID: 0x5E55, Nonce: 0x1122334455667788,
		Kind: wire.QueryIsolation, AnchorSwitch: 2, AnchorPort: 3, MAC: 0x020000000001, IP: wire.IPv4(10, 0, 0, 1),
		Constraints: []wire.FieldConstraint{{Field: wire.FieldIPDst, Value: 0x0A000002, Mask: 0xFFFFFFFF}},
		Param:       "eu", Violated: true, Detail: "d", Seq: 9, ClientKey: []byte{0xAA, 0xBB}}
	const want = "0000005e01000000000000000500000000000000070000000000005e5511223344556677880203000000020000000300000200000000010a000001000106000000000a00000200000000ffffffff000265750100016400000000000000090002aabb00000009020000000000000005"
	path := filepath.Join(t.TempDir(), "subs.log")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(rec.ID); err != nil {
		t.Fatal(err)
	}
	s.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != want {
		t.Fatalf("store log drifted from the golden bytes:\n got  %x\n want %s", got, want)
	}

	// The golden log opens, replays both records, and the upsert alone
	// restores the record exactly.
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if live, _ := s2.Load(); len(live) != 0 || s2.appends != 2 {
		t.Fatalf("golden log replay: live=%v appends=%d", live, s2.appends)
	}
	upsert := got[:len(got)-13]
	back, op, err := unmarshalRecord(upsert[4:])
	if err != nil || op != recUpsert || !reflect.DeepEqual(back, &rec) {
		t.Fatalf("golden upsert decodes to %+v (op %d, %v)", back, op, err)
	}
}

func TestFileStoreRoundtripAndRemove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "subs.log")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Remove(3); err != nil {
		t.Fatal(err)
	}
	// Upsert overwrites.
	r2 := testRecord(2)
	r2.Violated = true
	r2.Seq = 99
	if err := s.Append(r2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("want 4 live records, got %d", len(recs))
	}
	for _, rec := range recs {
		if rec.ID == 3 {
			t.Fatal("removed record resurrected")
		}
		if rec.ID == 2 && rec.Seq != 99 {
			t.Fatalf("upsert not applied on replay: %+v", rec)
		}
	}
}

func TestFileStoreCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "subs.log")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	// Churn one record far past the compaction threshold: the log must
	// stay bounded by the live set, not the op count.
	for i := 0; i < 10*fileCompactSlack; i++ {
		rec := testRecord(1)
		rec.Seq = uint64(i)
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	rec1 := testRecord(1)
	one := int64(len(rec1.marshal()) + 4)
	if fi.Size() > one*int64(2*fileCompactSlack) {
		t.Fatalf("log not compacted: %d bytes for one live record", fi.Size())
	}
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != uint64(10*fileCompactSlack-1) {
		t.Fatalf("compacted state wrong: %+v", recs)
	}
}

func TestFileStoreTornTailIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "subs.log")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a length header promising more bytes
	// than exist.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1000)
	f.Write(hdr[:])
	f.Write([]byte{recUpsert, 1, 2})
	f.Close()

	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("torn tail should not fail open: %v", err)
	}
	defer s2.Close()
	recs, err := s2.Load()
	if err != nil || len(recs) != 1 || recs[0].ID != 1 {
		t.Fatalf("torn tail corrupted replay: %v %+v", err, recs)
	}
	// And the truncated file must accept clean appends again.
	if err := s2.Append(testRecord(2)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	recs, _ = s3.Load()
	if len(recs) != 2 {
		t.Fatalf("append after torn-tail truncation lost: %+v", recs)
	}
}

// TestFileStoreSkipsRetiredProtocolRecords: a log written by an earlier
// build still opens. Records of subscriptions registered over the removed
// v1 client protocol (the byte before Kind is not wire.EnvelopeVersion)
// are skipped — nothing could deliver their pushes — while the records
// around them replay normally.
func TestFileStoreSkipsRetiredProtocolRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "subs.log")
	var log []byte
	for id := uint64(1); id <= 3; id++ {
		rec := testRecord(id)
		payload := rec.marshal()
		const protoOff = 1 + 4*8 // op byte, then ID/ClientID/SessionID/Nonce
		if payload[protoOff] != wire.EnvelopeVersion {
			t.Fatalf("protocol byte not at offset %d: % x", protoOff, payload[:protoOff+2])
		}
		if id == 2 {
			payload[protoOff] = 1
		}
		log = binary.BigEndian.AppendUint32(log, uint32(len(payload)))
		log = append(log, payload...)
	}
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs, err := s.Load()
	if err != nil || len(recs) != 2 || recs[0].ID != 1 || recs[1].ID != 3 {
		t.Fatalf("replay around a retired-protocol record: %v %+v", err, recs)
	}
}
