package rvaas

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/topology"
	"repro/internal/verifier"
	"repro/internal/wire"
)

// Durable sessions: the subscription engine is the controller's most
// valuable state — 10⁵ standing invariants a tenant registered, each
// with an authenticated anchor and a signed verdict history — and before
// this layer a controller restart silently dropped all of it (clients only
// noticed via gap detection and had to blind re-subscribe). The store below
// persists each subscription's durable core (client key, invariant spec,
// anchor binding, session, last verdict/seq) on every registration and
// verdict transition; a restarting controller rebuilds the set, re-verifies
// every invariant against the freshly monitored network, and pushes signed
// notifications for whatever changed while it was down. Clients then
// resynchronize with one OpSessionResume exchange instead of re-registering
// the world.
//
// Deliberately NOT persisted: footprints, isolation cones and the inverted
// index (cheap to recompute, expensive to keep consistent on disk), and the
// monitoring snapshot (the switches are the authority; a restart re-syncs).

// SubscriptionRecord is the durable form of one standing invariant.
type SubscriptionRecord struct {
	ID        uint64
	ClientID  uint64
	SessionID uint64
	Nonce     uint64
	Kind      wire.QueryKind
	// Anchor binding: the access point the invariant is pinned to and the
	// L2/L3 addresses notifications are injected toward.
	AnchorSwitch uint32
	AnchorPort   uint32
	MAC          uint64
	IP           uint32
	Constraints  []wire.FieldConstraint
	Param        string
	// Last committed verdict.
	Violated bool
	Detail   string
	Seq      uint64
	// ClientKey is the client's registered Ed25519 verification key, so a
	// restored controller can authenticate the client's operations before
	// any out-of-band re-registration.
	ClientKey []byte
}

// SubscriptionStore persists the standing-invariant set across controller
// restarts. Append upserts one record (keyed by ID), Remove deletes one,
// Load returns the live set. Implementations must be safe for concurrent
// use; errors are reported but the engine treats persistence as
// best-effort (a failing store degrades durability, never correctness of
// the live engine).
type SubscriptionStore interface {
	Append(rec SubscriptionRecord) error
	Remove(id uint64) error
	Load() ([]SubscriptionRecord, error)
	Close() error
}

// ------------------------------------------------------------- codec -----

const (
	recUpsert byte = 1
	recRemove byte = 2
)

func (r *SubscriptionRecord) marshal() []byte {
	var w wire.Writer
	w.U8(recUpsert)
	w.U64(r.ID)
	w.U64(r.ClientID)
	w.U64(r.SessionID)
	w.U64(r.Nonce)
	// The byte before Kind is the client protocol the subscription's pushes
	// are encoded in. One protocol remains, so it is a constant; it stays on
	// disk so logs written by earlier builds keep their layout.
	w.U8(wire.EnvelopeVersion)
	w.U8(uint8(r.Kind))
	w.U32(r.AnchorSwitch)
	w.U32(r.AnchorPort)
	w.U64(r.MAC)
	w.U32(r.IP)
	w.Constraints(r.Constraints)
	w.Str(r.Param)
	w.Bool(r.Violated)
	w.Str(r.Detail)
	w.U64(r.Seq)
	w.BytesN(r.ClientKey)
	return w.Bytes()
}

func marshalRemove(id uint64) []byte {
	var w wire.Writer
	w.U8(recRemove)
	w.U64(id)
	return w.Bytes()
}

// appendFrame appends one log record: a 32-bit length, then the payload.
func appendFrame(log, payload []byte) []byte {
	w := wire.NewWriter(log)
	w.Bytes32(payload)
	return w.Bytes()
}

// errRetiredProtocol marks a well-formed record of a subscription whose
// client spoke a protocol this build no longer serves: its pushes could
// not be delivered, so the record is skipped rather than restored.
var errRetiredProtocol = errors.New("rvaas: subscription record of a retired client protocol")

func unmarshalRecord(b []byte) (*SubscriptionRecord, byte, error) {
	r := wire.NewReader(b)
	op := r.U8()
	switch op {
	case recRemove:
		rec := &SubscriptionRecord{ID: r.U64()}
		if r.Err() != nil {
			return nil, 0, fmt.Errorf("rvaas: truncated remove record")
		}
		return rec, op, nil
	case recUpsert:
		rec := &SubscriptionRecord{
			ID:        r.U64(),
			ClientID:  r.U64(),
			SessionID: r.U64(),
			Nonce:     r.U64(),
		}
		proto := r.U8()
		rec.Kind = wire.QueryKind(r.U8())
		rec.AnchorSwitch = r.U32()
		rec.AnchorPort = r.U32()
		rec.MAC = r.U64()
		rec.IP = r.U32()
		rec.Constraints = r.Constraints()
		rec.Param = r.Str()
		rec.Violated = r.Bool()
		rec.Detail = r.Str()
		rec.Seq = r.U64()
		rec.ClientKey = r.BytesN()
		if r.Err() != nil {
			return nil, 0, fmt.Errorf("rvaas: truncated subscription record")
		}
		if proto != wire.EnvelopeVersion {
			return rec, op, errRetiredProtocol
		}
		return rec, op, nil
	}
	return nil, 0, fmt.Errorf("rvaas: unknown record op %d", op)
}

// ----------------------------------------------------------- FileStore ---

// fileCompactSlack bounds log growth: when the op count since the last
// rewrite exceeds 2×live + slack, the log is rewritten to exactly the live
// set (write-temp + rename, so a crash mid-compaction leaves either the
// old or the new log, never a mix).
const fileCompactSlack = 128

// FileStore is an append-compacted on-disk SubscriptionStore: operations
// append length-prefixed records to a single log file; when dead records
// dominate, the log is compacted to the live set. A torn final record
// (crash mid-append) is truncated away on load.
type FileStore struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	live    map[uint64]SubscriptionRecord
	appends int
}

// OpenFileStore opens (or creates) the log at path and replays it.
func OpenFileStore(path string) (*FileStore, error) {
	s := &FileStore{path: path, live: make(map[uint64]SubscriptionRecord)}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	r := wire.NewReader(data)
	valid := 0
	for {
		payload := r.Bytes32()
		if r.Err() != nil || len(payload) == 0 {
			break // torn tail
		}
		rec, op, err := unmarshalRecord(payload)
		if errors.Is(err, errRetiredProtocol) {
			// Skipped: nothing could deliver a retired-protocol record's pushes.
		} else if err != nil {
			break
		} else if op == recRemove {
			delete(s.live, rec.ID)
		} else {
			s.live[rec.ID] = *rec
		}
		valid = len(data) - r.Len()
		s.appends++
	}
	// Drop any torn tail so the next append starts at a record boundary.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(int64(valid)); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, os.SEEK_END); err != nil {
		f.Close()
		return nil, err
	}
	s.f = f
	return s, nil
}

func (s *FileStore) writeLocked(payload []byte) error {
	if s.f == nil {
		// A previous compaction renamed the log but failed to reopen it
		// (e.g. fd exhaustion): retry here so appends never silently land
		// in an unlinked inode.
		f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		s.f = f
	}
	if _, err := s.f.Write(appendFrame(nil, payload)); err != nil {
		return err
	}
	s.appends++
	if s.appends > 2*len(s.live)+fileCompactSlack {
		return s.compactLocked()
	}
	return nil
}

// compactLocked rewrites the log to exactly the live set.
func (s *FileStore) compactLocked() error {
	tmp := s.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	ids := make([]uint64, 0, len(s.live))
	for id := range s.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var log []byte
	for _, id := range ids {
		rec := s.live[id]
		log = appendFrame(log, rec.marshal())
	}
	if _, err := f.Write(log); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return err
	}
	// The rename unlinked the inode s.f points at: close it NOW and only
	// install the reopened handle on success — otherwise writeLocked would
	// keep "successfully" appending into the orphaned file and every later
	// update would vanish. On reopen failure s.f stays nil and the next
	// write retries the open.
	s.f.Close()
	s.f = nil
	nf, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.f = nf
	s.appends = len(s.live)
	return nil
}

// Append upserts a record.
func (s *FileStore) Append(rec SubscriptionRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live[rec.ID] = rec
	return s.writeLocked(rec.marshal())
}

// Remove deletes a record.
func (s *FileStore) Remove(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.live, id)
	return s.writeLocked(marshalRemove(id))
}

// Load returns the live set in id order.
func (s *FileStore) Load() ([]SubscriptionRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SubscriptionRecord, 0, len(s.live))
	for _, rec := range s.live {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Close syncs and closes the log.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// DefaultStorePath joins a state directory with the canonical log name.
func DefaultStorePath(dir string) string {
	return filepath.Join(dir, "subscriptions.log")
}

// ------------------------------------------------- controller plumbing ---

// recordOfTransition captures one subscription's durable state from a
// committed verdict transition. The verdict fields (Violated/Detail/Seq)
// ride in the Transition — captured under the owning shard's mutex — so a
// record can never mix two commits; the identity fields are immutable
// after registration. The client key is filled in later (persistUpsert).
func recordOfTransition(t verifier.Transition) *SubscriptionRecord {
	sub := t.Sub
	return &SubscriptionRecord{
		ID:           sub.ID,
		ClientID:     sub.ClientID,
		SessionID:    sub.SessionID,
		Nonce:        sub.Nonce,
		Kind:         sub.Kind,
		AnchorSwitch: uint32(sub.Anchor.Switch),
		AnchorPort:   uint32(sub.Anchor.Port),
		MAC:          sub.Anchor.MAC,
		IP:           sub.Anchor.IP,
		Constraints:  append([]wire.FieldConstraint(nil), sub.Constraints...),
		Param:        sub.Param,
		Violated:     t.Violated,
		Detail:       t.Detail,
		Seq:          t.Seq,
	}
}

// persistUpsert appends one subscription record to the store. Best-effort:
// a failing store costs durability of this update, never live correctness.
func (c *Controller) persistUpsert(rec *SubscriptionRecord) {
	if c.persist == nil {
		return
	}
	if pub, ok := c.clientKeyOf(rec.ClientID); ok {
		rec.ClientKey = append([]byte(nil), pub...)
	}
	_ = c.persist.Append(*rec)
}

// persistRemove deletes one subscription record from the store.
func (c *Controller) persistRemove(id uint64) {
	if c.persist == nil {
		return
	}
	_ = c.persist.Remove(id)
}

// restoreSubscriptions rebuilds the standing-invariant set from the
// persistence store at startup. Restored subscriptions keep their id,
// session, anchor, verdict and sequence number — so resumed clients see
// continuous seq streams — and are queued for a full re-verification on
// the next recheck pass (the network may have changed arbitrarily while
// the controller was down; transitions found then are pushed with the next
// seq). Client keys ride along so restored clients authenticate
// immediately.
func (c *Controller) restoreSubscriptions() error {
	recs, err := c.persist.Load()
	if err != nil {
		return err
	}
	var maxID uint64
	for i := range recs {
		rec := &recs[i]
		anchor := verifier.Anchor{
			Switch: topology.SwitchID(rec.AnchorSwitch),
			Port:   topology.PortNo(rec.AnchorPort),
			MAC:    rec.MAC,
			IP:     rec.IP,
		}
		src := verifier.Source{Nonce: rec.Nonce, SessionID: rec.SessionID}
		sub, err := verifier.NewSubscription(rec.ClientID, src, rec.Kind, rec.Constraints, rec.Param, anchor)
		if err != nil {
			// A record written by a newer engine with a kind this build
			// does not know: skip it rather than refuse to start.
			continue
		}
		sub.ID = rec.ID
		sub.Violated = rec.Violated
		sub.Detail = rec.Detail
		sub.Seq = rec.Seq
		sub.Evaluated = true
		sub.NeedsFullEval = true
		if rec.ID > maxID {
			maxID = rec.ID
		}
		if rec.Nonce != 0 {
			// Re-seed replay protection: a captured pre-restart subscribe
			// frame must stay unreplayable after the restart.
			c.engine.RecordNonce(rec.ClientID, rec.Nonce)
		}
		if len(rec.ClientKey) == ed25519.PublicKeySize {
			c.mu.Lock()
			c.clients[rec.ClientID] = append(ed25519.PublicKey(nil), rec.ClientKey...)
			c.mu.Unlock()
		}
		c.engine.Restore(sub)
	}
	// Fresh registrations must never collide with a restored id.
	c.engine.EnsureNextID(maxID)
	return nil
}
