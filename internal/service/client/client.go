// Package client is a small typed Go client for mbaserved. It shares
// the wire structs of internal/service, maps overload answers (429 and
// 503) to StatusError values carrying the server's Retry-After hint,
// and honours context cancellation — cancelling the context drops the
// connection, which the server turns into a Budget.Stop on the running
// solve.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mbasolver/internal/service"
)

// Client talks to one mbaserved instance.
type Client struct {
	base string
	hc   *http.Client
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New returns a client for the server at base, e.g.
// "http://127.0.0.1:8391". The default http.Client has no timeout:
// per-request bounds come from the caller's context and the server's
// budget clamps.
func New(base string, opts ...Option) *Client {
	c := &Client{base: base, hc: &http.Client{}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Base returns the server base URL this client targets.
func (c *Client) Base() string { return c.base }

// StatusError is a non-2xx answer from the server.
type StatusError struct {
	Code       int
	Message    string
	RetryAfter time.Duration // backoff hint on 429/503, else 0
}

func (e *StatusError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("mbaserved: %d %s (retry after %v)", e.Code, e.Message, e.RetryAfter)
	}
	return fmt.Sprintf("mbaserved: %d %s", e.Code, e.Message)
}

// Overloaded reports whether the error is a shed-load answer worth
// retrying after the hinted backoff.
func (e *StatusError) Overloaded() bool {
	return e.Code == http.StatusTooManyRequests || e.Code == http.StatusServiceUnavailable
}

// Simplify runs MBA-Solver simplification on the server.
func (c *Client) Simplify(ctx context.Context, req service.SimplifyRequest) (*service.SimplifyResponse, error) {
	var resp service.SimplifyResponse
	if err := c.post(ctx, service.PathSimplify, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Solve runs an equivalence check on the server.
func (c *Client) Solve(ctx context.Context, req service.SolveRequest) (*service.SolveResponse, error) {
	var resp service.SolveResponse
	if err := c.post(ctx, service.PathSolve, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Classify computes complexity metrics on the server.
func (c *Client) Classify(ctx context.Context, req service.ClassifyRequest) (*service.ClassifyResponse, error) {
	var resp service.ClassifyResponse
	if err := c.post(ctx, service.PathClassify, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Batch runs many solve/simplify items in one call; results come back
// in input order, structurally identical items deduplicated
// server-side.
func (c *Client) Batch(ctx context.Context, req service.BatchRequest) (*service.BatchResponse, error) {
	var resp service.BatchResponse
	if err := c.post(ctx, service.PathBatch, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Health checks readiness; a nil error means the server admits work.
// (A draining server is alive but not ready — see Alive.)
func (c *Client) Health(ctx context.Context) error { return c.Ready(ctx) }

// Ready checks readiness (/readyz): nil exactly while the server
// admits new work; a 503 StatusError while it drains.
func (c *Client) Ready(ctx context.Context) error {
	var resp service.HealthResponse
	return c.get(ctx, service.PathReady, &resp)
}

// Alive checks liveness (/healthz): nil as long as the process is up
// and answering HTTP, including while it drains.
func (c *Client) Alive(ctx context.Context) error {
	var resp service.HealthResponse
	return c.get(ctx, service.PathHealth, &resp)
}

// Metrics scrapes /debug/metrics.
func (c *Client) Metrics(ctx context.Context) (*service.MetricsSnapshot, error) {
	var resp service.MetricsSnapshot
	if err := c.get(ctx, service.PathMetrics, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (c *Client) post(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("encoding request: %w", err)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(service.HeaderRequestID, requestID(ctx))
	return c.do(hr, resp)
}

func (c *Client) get(ctx context.Context, path string, resp any) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	hr.Header.Set(service.HeaderRequestID, requestID(ctx))
	return c.do(hr, resp)
}

// requestIDKey carries a caller-chosen correlation ID in a context.
type requestIDKey struct{}

// WithRequestID returns a context whose requests carry the given
// X-Request-ID instead of a generated one — callers batching many
// related calls can correlate them under one ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// requestID resolves the correlation ID for one logical call: the
// context's, or a fresh random one.
func requestID(ctx context.Context) string {
	if id, ok := ctx.Value(requestIDKey{}).(string); ok && id != "" {
		return id
	}
	return service.NewRequestID()
}

func (c *Client) do(hr *http.Request, out any) error {
	res, err := c.hc.Do(hr)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(io.LimitReader(res.Body, 8<<20))
	if err != nil {
		return fmt.Errorf("reading response: %w", err)
	}
	if res.StatusCode/100 != 2 {
		se := &StatusError{Code: res.StatusCode}
		var er service.ErrorResponse
		if json.Unmarshal(body, &er) == nil && er.Error != "" {
			se.Message = er.Error
		} else {
			se.Message = http.StatusText(res.StatusCode)
		}
		if ra := res.Header.Get("Retry-After"); ra != "" {
			se.RetryAfter = parseRetryAfter(ra, time.Now())
		}
		return se
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("decoding %s response: %w", hr.URL.Path, err)
	}
	return nil
}

// parseRetryAfter interprets a Retry-After header value per RFC 9110
// §10.2.3, which allows both forms: delta-seconds ("120") and an
// HTTP-date ("Fri, 08 Aug 2026 12:00:00 GMT"). Proxies and load
// balancers routinely emit the date form, which the old delta-only
// parsing silently dropped, collapsing the server's requested pause to
// the default backoff. Negative deltas and dates already in the past
// clamp to zero (retry immediately); garbage yields zero, leaving the
// caller's own backoff in charge.
func parseRetryAfter(v string, now time.Time) time.Duration {
	if sec, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64); err == nil {
		if sec < 0 {
			return 0
		}
		return time.Duration(sec) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := at.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}
