package rvaas

import (
	"fmt"

	"repro/internal/verifier"
	"repro/internal/wire"
)

// BatchSubscribe is the one registration path of the client protocol; a
// single subscribe is a one-item batch. It is also the amortization layer:
// a tenant registering 10⁴ standing invariants one by one pays 10⁴
// round-trips, each with its own client signature, server-side
// verification, run-lock acquisition for one initial evaluation and reply
// signature. One batch pays ONE signature verification, ONE run-lock
// acquisition with the initial evaluations fanned across the recheck
// worker pool, and ONE signed reply — the E15 experiment measures the
// resulting speedup.

func (s coreService) BatchSubscribe(o Origin, b *wire.BatchSubscribeRequest) *wire.BatchReply {
	c := s.c
	reply := &wire.BatchReply{
		Version: wire.CurrentVersion,
		Nonce:   b.Nonce,
		Status:  wire.StatusOK,
	}
	// Replay protection: a (client, nonce) pair identifies one
	// registration. The memory survives unsubscription, so a captured
	// frame cannot resurrect a removed invariant, and is bounded per client
	// so no other tenant can age it out. The whole batch consumes one
	// nonce; per-item routing nonces are derived (BatchItemNonce) and never
	// wire-accepted, so they do not age out the client's nonce memory.
	if b.Nonce != 0 && !c.engine.RecordNonce(b.ClientID, b.Nonce) {
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

	// The engine takes its run lock once, fanning the initial evaluations
	// across the worker pool exactly like a recheck pass (a one-item batch
	// runs inline). Initial verdicts are carried in the reply, not pushed;
	// an initially-violated invariant consumes sequence number 1 without
	// any push existing for it, so each item carries its current seq for
	// the client to baseline gap detection on.
	if len(subs) > 0 {
		c.engine.RegisterBatch(subs, verifier.EvalContext{Build: c.passBuild, Workers: c.evalWorkers()})
	}

	for k, sub := range subs {
		it := wire.BatchReplyItem{SubID: sub.ID, Status: wire.StatusOK}
		if st, ok := c.engine.View(sub.ID); ok {
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
