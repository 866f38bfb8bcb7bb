package service

import (
	"encoding/json"

	"mbasolver/internal/smt"
)

// This file is the verdict tier: the in-memory LRU in front of the
// optional persistent store (internal/store). Every request path — the
// single endpoints and every /v1/batch group — looks answers up with
// recall (LRU → store → miss) and writes them back with remember, so
// the never-cache/never-persist rule lives in one place: definitive,
// one predicate per job kind, applied to fresh answers before they are
// written and to store entries before they are served. The store file
// is just bytes on disk — hand-edited, bit-rotted within a CRC-valid
// frame, or written by a future buggy version — so a recalled entry
// that fails the predicate is treated as a miss and recomputed.

// answer is a job's result as the tier holds it: a *SolveResponse,
// *SimplifyResponse or *ClassifyResponse. Tier values are shared and
// never mutated; per-request fields are set on copies.
type answer interface {
	// asCached returns a copy marked as served from the tier.
	asCached() answer
	// withElapsed returns a copy carrying a request's wall time.
	withElapsed(ms float64) answer
	// fill places the answer in the batch item field of its kind.
	fill(it *BatchItemResult)
}

func (r SolveResponse) asCached() answer                 { r.Cached = true; return &r }
func (r SimplifyResponse) asCached() answer              { r.Cached = true; return &r }
func (r ClassifyResponse) asCached() answer              { r.Cached = true; return &r }
func (r SolveResponse) withElapsed(ms float64) answer    { r.ElapsedMS = ms; return &r }
func (r SimplifyResponse) withElapsed(ms float64) answer { r.ElapsedMS = ms; return &r }
func (r ClassifyResponse) withElapsed(ms float64) answer { r.ElapsedMS = ms; return &r }
func (r *SolveResponse) fill(it *BatchItemResult)        { it.Solve = r }
func (r *SimplifyResponse) fill(it *BatchItemResult)     { it.Simplify = r }
func (r *ClassifyResponse) fill(it *BatchItemResult)     { it.Classify = r }

// definitive reports whether the job's answer is a fact about the
// query rather than an artifact of the budget or the pool that
// produced it — the only answers the tier writes or serves.
func (j *job) definitive() bool {
	switch r := j.resp.(type) {
	case *SolveResponse:
		// Timeouts are budget artifacts; unavailable marks a shed group.
		return r.Status != smt.Timeout.String() && r.Reason != ReasonUnavailable
	case *SimplifyResponse:
		// Simplification is deterministic; only a timed-out verification
		// makes the answer budget-dependent, and a retry deserves a
		// fresh proof attempt.
		return r.Verify == nil || r.Verify.Status != smt.Timeout.String()
	case *ClassifyResponse:
		// A short sample block is the classify shape of a timeout: the
		// stop flag fired mid-run.
		return len(r.Samples) == j.samples
	}
	return false
}

// recall answers j from the tier, reporting whether it did. A store
// hit is decoded into the job's response type, refused unless it is
// populated and definitive, and promoted into the LRU so the disk is
// read once per key per process.
func (s *Server) recall(j *job) bool {
	v, ok := s.cache.Get(j.key)
	if !ok {
		if j.resp = s.storeGet(j); j.resp == nil || !j.definitive() {
			j.resp = nil
			return false
		}
		v = j.resp
		//lint:ignore reasoncheck definitive() above is this kind's never-cache predicate
		s.cache.Put(j.key, v)
	}
	j.resp = v.(answer).asCached()
	return true
}

// storeGet reads j's key from the store into a fresh response of the
// job's kind; nil on a miss or on bytes that do not decode to a
// populated answer.
func (s *Server) storeGet(j *job) answer {
	if s.store == nil {
		return nil
	}
	data, ok := s.store.Get(j.key)
	if !ok {
		return nil
	}
	switch j.kind {
	case kindSolve:
		r := &SolveResponse{}
		if json.Unmarshal(data, r) == nil && r.Status != "" {
			return r
		}
	case kindSimplify:
		r := &SimplifyResponse{}
		if json.Unmarshal(data, r) == nil && r.Simplified != "" {
			return r
		}
	default:
		r := &ClassifyResponse{}
		if json.Unmarshal(data, r) == nil && r.Hash != "" {
			return r
		}
	}
	return nil
}

// remember writes a fresh definitive answer through the tier: into the
// LRU and, when the node has one, the store.
func (s *Server) remember(j *job) {
	if !j.definitive() {
		return
	}
	//lint:ignore reasoncheck definitive() above is this kind's never-cache predicate
	s.cache.Put(j.key, j.resp)
	if s.store == nil {
		return
	}
	if data, err := json.Marshal(j.resp); err == nil {
		//lint:ignore reasoncheck definitive() above is this kind's never-persist predicate
		s.store.Put(j.key, data)
	}
}
