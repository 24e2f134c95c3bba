package rvaas

import (
	"fmt"

	"repro/internal/headerspace"
	"repro/internal/verifier"
	"repro/internal/wire"
)

// Batch operations: the amortization layer of the client protocol. A
// tenant registering 10⁴ standing invariants one by one pays 10⁴
// round-trips, each with its own client signature, server-side
// verification, serialized initial evaluation (every subscribe takes an
// instance's run lock for one invariant) and ack signature. A batch pays
// ONE signature verification, ONE run-lock acquisition per owning fleet
// instance with the initial evaluations fanned across the recheck worker
// pool, and ONE signed reply — the E15 experiment measures the resulting
// speedup.

func (s coreService) BatchSubscribe(o Origin, b *wire.BatchSubscribeRequest) *wire.BatchReply {
	c := s.c
	reply := &wire.BatchReply{
		Version: wire.CurrentVersion,
		Nonce:   b.Nonce,
		Status:  wire.StatusOK,
	}
	// The whole batch consumes one replay-protection nonce; per-item
	// routing nonces are derived (BatchItemNonce) and never wire-accepted,
	// so they do not age out the client's nonce memory.
	if b.Nonce != 0 && !c.fleet.RecordNonce(b.ClientID, b.Nonce) {
		reply.Status = wire.StatusError
		reply.Detail = fmt.Sprintf("duplicate batch nonce %#x for client %d (replay?)", b.Nonce, b.ClientID)
		return c.signBatchReply(reply)
	}

	req := o.requester()
	anchor := verifier.Anchor{Switch: req.sw, Port: req.port, MAC: req.mac, IP: req.ip}
	items := make([]wire.BatchReplyItem, len(b.Items))
	subs := make([]*verifier.Subscription, 0, len(b.Items))
	idx := make([]int, 0, len(b.Items)) // subs position -> request item index
	for i, it := range b.Items {
		src := verifier.Source{Nonce: wire.BatchItemNonce(b.Nonce, i), SessionID: o.SessionID}
		sub, err := verifier.NewSubscription(b.ClientID, src, it.Kind, it.Constraints, it.Param, anchor)
		if err != nil {
			items[i] = wire.BatchReplyItem{Status: wire.StatusError, Detail: err.Error()}
			continue
		}
		subs = append(subs, sub)
		idx = append(idx, i)
	}

	// The fleet groups the batch by owning instance and takes each run
	// lock once, fanning the initial evaluations across the worker pool
	// exactly like a recheck pass. Initial verdicts are carried in the
	// reply (not pushed), mirroring single-subscribe ack semantics.
	if len(subs) > 0 {
		c.fleet.RegisterBatch(subs, verifier.EvalContext{Build: c.passBuild, Workers: c.evalWorkers()})
	}

	for k, sub := range subs {
		it := wire.BatchReplyItem{SubID: sub.ID, Status: wire.StatusOK}
		if st, ok := c.fleet.View(sub.ID); ok {
			it.Seq, it.Detail = st.Seq, st.Detail
			if st.Violated {
				it.Status = wire.StatusViolation
			}
		}
		items[idx[k]] = it
	}
	reply.Items = items
	return c.signBatchReply(reply)
}

func (s coreService) BatchQuery(o Origin, b *wire.BatchQueryRequest) *wire.BatchQueryReply {
	c := s.c
	reply := &wire.BatchQueryReply{
		Version: wire.CurrentVersion,
		Nonce:   b.Nonce,
		Status:  wire.StatusOK,
	}
	c.mu.Lock()
	c.stats.QueriesServed += uint64(len(b.Items))
	c.mu.Unlock()

	// All items share one compiled network (served from the compile cache)
	// and one snapshot id, so a batch answers a consistent configuration
	// version across every item. Batch queries run the logical pipeline
	// only — no in-band authentication round (AuthRequested stays 0);
	// clients that need endpoint authentication issue single queries.
	net := c.CompiledNetwork()
	snapID := c.snap.snapshotID()
	requester := o.requester()
	resps := make([]*wire.QueryResponse, len(b.Items))
	headerspace.PoolRun(len(b.Items), c.evalWorkers(), func(i int) {
		q := b.Items[i]
		resp := &wire.QueryResponse{
			Version:    wire.CurrentVersion,
			Kind:       q.Kind,
			Nonce:      q.Nonce,
			Status:     wire.StatusOK,
			SnapshotID: snapID,
		}
		c.answerQuery(net, requester, q, resp)
		resps[i] = resp
	})
	reply.Items = resps
	reply.SnapshotID = snapID
	reply.Signature, reply.Quote = c.enclave.SignAttested(reply.SigningBytes())
	return reply
}
