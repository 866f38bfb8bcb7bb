package service

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
)

// HeaderRequestID is the correlation header threaded end to end:
// clients generate one per logical call (kept stable across retries),
// the router forwards it to every sub-batch it fans out, and each node
// echoes it on the response and records it in the admission metrics
// ring on shed requests. One grep for the ID across node logs and
// /debug/metrics snapshots reconstructs a batch's path through the
// cluster.
const HeaderRequestID = "X-Request-ID"

// NewRequestID returns a fresh 16-hex-character random ID. Collisions
// across a debugging window are what matters, so 64 random bits are
// plenty while staying grep-friendly.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the process is in far deeper trouble
		// than correlation IDs; degrade to a constant rather than panic.
		return "rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// requestIDOf returns the request's correlation ID ("" if absent; the
// server middleware guarantees presence on requests it routed).
func requestIDOf(r *http.Request) string { return r.Header.Get(HeaderRequestID) }

// WithRequestID wraps h in the request-ID middleware that nodes and the
// cluster router share: an incoming X-Request-ID is adopted and echoed,
// a missing one is generated (and set on the request, so a router
// forwards it), and any answer — including 429 and 503 rejections —
// can be correlated across a multi-node cluster.
func WithRequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := requestIDOf(r)
		if id == "" {
			id = NewRequestID()
			r.Header.Set(HeaderRequestID, id)
		}
		w.Header().Set(HeaderRequestID, id)
		h.ServeHTTP(w, r)
	})
}
