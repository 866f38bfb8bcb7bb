package portfolio

import (
	"sync"
	"time"

	"mbasolver/internal/smt"
)

// Breaker is a circuit breaker guarding one peer: a solver personality
// in a Set, or a node behind the cluster router. An engine that keeps
// failing for structural reasons — contained panics, blown memory caps
// — is not going to win races, but it still costs a goroutine, a warm
// context and cache pressure per query. After Threshold consecutive
// failures the breaker opens and the engine is skipped; once Cooldown
// elapses a single probe query is let through (half-open), and its
// outcome either closes the breaker or re-opens it with the cooldown
// doubled, up to 16×Cooldown.
//
// Ordinary budget exhaustion is deliberately not a failure: timing out
// on hard MBA queries is the expected behaviour of a correct engine
// (the paper's tables are mostly timeouts), so only ReasonPanic and
// ReasonResource degradations count.
type Breaker struct {
	name string
	opts BreakerOptions
	now  func() time.Time // injectable clock for tests

	mu       sync.Mutex
	state    breakerState
	failures int           // consecutive breaker-relevant failures
	cooldown time.Duration // current open interval (exponential)
	until    time.Time     // when the open state expires
	trips    int64
}

// BreakerOptions tunes a Breaker. Zero fields take defaults.
type BreakerOptions struct {
	// Threshold is the consecutive-failure count that opens the
	// breaker. Default 3.
	Threshold int
	// Cooldown is the first open interval; the exponential backoff
	// stops at 16×Cooldown. Default 250ms.
	Cooldown time.Duration
}

func (o BreakerOptions) withDefaults() BreakerOptions {
	if o.Threshold <= 0 {
		o.Threshold = 3
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 250 * time.Millisecond
	}
	return o
}

type breakerState int8

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// NewBreaker builds a closed breaker for the named peer.
func NewBreaker(name string, opts BreakerOptions) *Breaker {
	o := opts.withDefaults()
	return &Breaker{name: name, opts: o, cooldown: o.Cooldown, now: time.Now}
}

// Name returns the peer the breaker guards.
func (b *Breaker) Name() string { return b.name }

// Allow reports whether the engine may run a query now. An open
// breaker whose cooldown has elapsed admits exactly one probe
// (transitioning to half-open); further queries are refused until the
// probe's outcome is reported.
func (b *Breaker) Allow() bool {
	now := b.now() // read the clock outside the lock
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Before(b.until) {
			return false
		}
		b.state = breakerHalfOpen
		return true
	default: // half-open: probe already in flight
		return false
	}
}

// Open reports whether the breaker is open. A half-open breaker is not:
// its probe is in flight and its traffic doubles as evidence. Unlike
// Allow it changes no state, so asking it never takes the probe slot.
func (b *Breaker) Open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == breakerOpen
}

// Report feeds one run's outcome to the breaker: a structural
// degradation (ReasonPanic or ReasonResource) is a failure, anything
// else — a definitive verdict (which carries ReasonNone) or plain
// budget exhaustion — is a success.
func (b *Breaker) Report(reason smt.Reason) {
	if reason == smt.ReasonPanic || reason == smt.ReasonResource {
		b.ReportFailure()
		return
	}
	b.ReportSuccess()
}

// ReportSuccess records a healthy outcome (definitive verdict, or an
// Unknown that is plain budget exhaustion): the failure streak resets
// and a half-open probe closes the breaker.
func (b *Breaker) ReportSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.state = breakerClosed
	b.cooldown = b.opts.Cooldown
}

// ReportFailure records a failure: for an engine a structural one
// (ReasonPanic or ReasonResource), for a node a failed forward or
// probe. Threshold consecutive failures open the breaker; a failed
// half-open probe re-opens it with the cooldown doubled.
func (b *Breaker) ReportFailure() {
	now := b.now() // read the clock outside the lock
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	switch {
	case b.state == breakerHalfOpen:
		b.cooldown = min(2*b.cooldown, 16*b.opts.Cooldown)
		b.trip(now)
	case b.state == breakerClosed && b.failures >= b.opts.Threshold:
		b.trip(now)
	}
}

// trip transitions to the open state (callers hold b.mu).
func (b *Breaker) trip(now time.Time) {
	b.state = breakerOpen
	b.until = now.Add(b.cooldown)
	b.trips++
}

// State renders the breaker state for observability.
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
