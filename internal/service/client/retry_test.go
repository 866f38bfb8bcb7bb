package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mbasolver/internal/service"
)

// overloadThenOK answers n overload statuses, then a fixed solve
// verdict, counting every attempt.
func overloadThenOK(t *testing.T, n int, code int, retryAfter string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= int64(n) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(code)
			json.NewEncoder(w).Encode(service.ErrorResponse{Error: "overloaded"})
			return
		}
		json.NewEncoder(w).Encode(service.SolveResponse{Status: "equivalent"})
	}))
	t.Cleanup(srv.Close)
	return srv, &attempts
}

// TestParseRetryAfter pins RFC 9110 §10.2.3: the header carries either
// delta-seconds or an HTTP-date, and both must be honoured. The date
// form is what real proxies and load balancers emit; before the fix it
// parsed as garbage and the hint was silently dropped.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		in   string
		want time.Duration
	}{
		{"delta seconds", "120", 120 * time.Second},
		{"delta zero", "0", 0},
		{"delta with spaces", "  30 ", 30 * time.Second},
		{"negative delta clamps", "-5", 0},
		{"http date future", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{"http date past clamps", now.Add(-time.Hour).Format(http.TimeFormat), 0},
		{"rfc850 date", now.Add(2 * time.Minute).Format("Monday, 02-Jan-06 15:04:05 GMT"), 2 * time.Minute},
		{"ansi c date", now.Add(45 * time.Second).Format(time.ANSIC), 45 * time.Second},
		{"garbage", "soon", 0},
		{"empty", "", 0},
		{"fractional seconds rejected", "1.5", 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in, now); got != tc.want {
			t.Errorf("%s: parseRetryAfter(%q) = %v, want %v", tc.name, tc.in, got, tc.want)
		}
	}
}

// TestNoRetryWithoutPolicy: an overload answer comes back after one
// attempt as a StatusError carrying the server's Retry-After hint;
// backing off is the caller's call.
func TestNoRetryWithoutPolicy(t *testing.T) {
	srv, attempts := overloadThenOK(t, 1<<30, http.StatusTooManyRequests, "7")
	cl := New(srv.URL)
	_, err := cl.Solve(context.Background(), service.SolveRequest{A: "x", B: "x", Width: 8})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests || !se.Overloaded() {
		t.Fatalf("err = %v", err)
	}
	if se.RetryAfter != 7*time.Second {
		t.Fatalf("RetryAfter = %v, want the header's 7s", se.RetryAfter)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("%d attempts, want 1: the client does not retry", got)
	}
}
