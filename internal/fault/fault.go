// Package fault is the deterministic fault-injection registry behind
// the solver stack's chaos tests and graceful-degradation hardening.
//
// Packages declare named injection sites at init time:
//
//	var siteLearn = fault.NewSite("sat.learn")
//
// and consult them at the point where a real failure could occur:
//
//	if siteLearn.Fire() { /* behave as if the allocation failed */ }
//
// With no plan installed a site compiles down to a single atomic bool
// load and a branch-predictable taken-fast path, so the production hot
// paths pay effectively nothing (the acceptance bar is < 2% throughput
// regression with injection disabled). Tests install a Plan — parsed
// from a compact spec like
//
//	"sat.learn:hit=3;bitblast.gate:p=0.01,seed=42"
//
// — that arms a subset of sites with either fire-on-Nth-hit counters
// or a seeded per-site splitmix64 probability stream. Both modes are
// deterministic: the same plan over the same (per-goroutine) hit
// sequence fires at the same points, which is what lets the chaos
// suite replay a failure schedule and assert the exact degradation
// behaviour.
//
// The package also owns the module's panic bookkeeping: injected
// panics are raised as *InjectedPanic values so recovery sites can
// distinguish simulated faults from genuine bugs, and every recovery
// site records what it swallowed through RecordPanic — the mbalint
// recoverguard analyzer enforces that no recover() in the module
// drops a panic silently.
package fault

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Site is one named injection point. Sites are created once at package
// init via NewSite and live for the process; arming and disarming is
// done globally through Enable/Disable.
type Site struct {
	name  string
	armed atomic.Bool
	rule  atomic.Pointer[rule]
	hits  atomic.Uint64 // hits while armed
	fired atomic.Uint64 // times the site reported failure
}

// rule is one site's failure schedule. Exactly one of the modes is
// active: nth > 0 (fire on the nth armed hit), every > 0 (fire on
// every every-th hit), or prob > 0 (independent seeded coin per hit).
type rule struct {
	nth   uint64
	every uint64
	prob  float64
	// prng is the site's splitmix64 state; advancing it atomically
	// gives each hit a unique deterministic draw even under concurrent
	// callers (the interleaving is the only nondeterminism, exactly as
	// with a real failure).
	prng atomic.Uint64
}

// registry maps site names to their handles. Sites register at package
// init; plans may only name registered sites, so a typo in a test spec
// is an error instead of a silent no-op.
var (
	regMu    sync.Mutex
	registry = map[string]*Site{}
)

// NewSite registers (or returns the existing) site with this name.
// Call it from a package-level var so the site exists before any plan
// is installed.
func NewSite(name string) *Site {
	regMu.Lock()
	defer regMu.Unlock()
	if s, ok := registry[name]; ok {
		return s
	}
	s := &Site{name: name}
	registry[name] = s
	return s
}

// Name returns the site's registered name.
func (s *Site) Name() string { return s.name }

// Hits returns how many times Fire was consulted while armed.
func (s *Site) Hits() uint64 { return s.hits.Load() }

// Fired returns how many times the site reported a failure.
func (s *Site) Fired() uint64 { return s.fired.Load() }

// Fire reports whether the simulated fault should happen at this hit.
// Disarmed sites return false after a single atomic load.
func (s *Site) Fire() bool {
	if !s.armed.Load() {
		return false
	}
	r := s.rule.Load()
	if r == nil {
		return false
	}
	n := s.hits.Add(1)
	fire := false
	switch {
	case r.nth > 0:
		fire = n == r.nth
	case r.every > 0:
		fire = n%r.every == 0
	case r.prob > 0:
		fire = splitmixFloat(r.prng.Add(0x9E3779B97F4A7C15)) < r.prob
	}
	if fire {
		s.fired.Add(1)
	}
	return fire
}

// splitmixFloat finalizes a splitmix64 state into a uniform [0,1)
// float64.
func splitmixFloat(z uint64) float64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Plan is a parsed failure schedule over a set of sites.
type Plan struct {
	entries map[string]planEntry
}

type planEntry struct {
	nth   uint64
	every uint64
	prob  float64
	seed  uint64
}

// Parse builds a Plan from a spec string:
//
//	site:key=val[,key=val][;site:...]
//
// Keys: hit=N (fire exactly on the Nth hit), every=N (fire on every
// Nth hit), p=F (probability per hit), seed=N (PRNG seed for p mode;
// default derives from the site name so distinct sites draw distinct
// streams). Exactly one of hit/every/p per site.
func Parse(spec string) (*Plan, error) {
	p := &Plan{entries: map[string]planEntry{}}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, opts, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("fault: %q: want site:key=val[,key=val]", part)
		}
		var e planEntry
		seeded := false
		for _, kv := range strings.Split(opts, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("fault: %q: want key=val", kv)
			}
			switch k {
			case "hit":
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil || n == 0 {
					return nil, fmt.Errorf("fault: %s: bad hit count %q", name, v)
				}
				e.nth = n
			case "every":
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil || n == 0 {
					return nil, fmt.Errorf("fault: %s: bad every count %q", name, v)
				}
				e.every = n
			case "p":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || f <= 0 || f > 1 {
					return nil, fmt.Errorf("fault: %s: bad probability %q", name, v)
				}
				e.prob = f
			case "seed":
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("fault: %s: bad seed %q", name, v)
				}
				e.seed = n
				seeded = true
			default:
				return nil, fmt.Errorf("fault: %s: unknown key %q", name, k)
			}
		}
		modes := 0
		for _, on := range []bool{e.nth > 0, e.every > 0, e.prob > 0} {
			if on {
				modes++
			}
		}
		if modes != 1 {
			return nil, fmt.Errorf("fault: %s: want exactly one of hit=, every=, p=", name)
		}
		if !seeded {
			e.seed = hashName(name)
		}
		p.entries[name] = e
	}
	return p, nil
}

// hashName derives a default per-site seed (FNV-1a).
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Enable installs the plan, arming exactly the sites it names and
// resetting their hit/fired counters. Sites named by the plan must be
// registered. Enable replaces any previously installed plan.
func Enable(p *Plan) error {
	regMu.Lock()
	defer regMu.Unlock()
	for name := range p.entries {
		if _, ok := registry[name]; !ok {
			return fmt.Errorf("fault: plan names unregistered site %q (registered: %s)",
				name, strings.Join(siteNamesLocked(), ", "))
		}
	}
	for name, s := range registry {
		e, ok := p.entries[name]
		if !ok {
			s.armed.Store(false)
			s.rule.Store(nil)
			continue
		}
		r := &rule{nth: e.nth, every: e.every, prob: e.prob}
		r.prng.Store(e.seed)
		s.hits.Store(0)
		s.fired.Store(0)
		s.rule.Store(r)
		s.armed.Store(true)
	}
	return nil
}

// EnableSpec is Enable(Parse(spec)).
func EnableSpec(spec string) error {
	p, err := Parse(spec)
	if err != nil {
		return err
	}
	return Enable(p)
}

// Disable disarms every site.
func Disable() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, s := range registry {
		s.armed.Store(false)
		s.rule.Store(nil)
	}
}

func siteNamesLocked() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the registered site with this name, if any — used by
// tests to assert hit/fired counters without holding the handle.
func Lookup(name string) (*Site, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	s, ok := registry[name]
	return s, ok
}

// ---- injected panics and panic bookkeeping --------------------------

// InjectedPanic is the value raised by injection sites that simulate a
// panic. Recovery sites use IsInjected to tell simulated faults from
// genuine bugs.
type InjectedPanic struct {
	Site string
}

func (p *InjectedPanic) Error() string {
	return "fault: injected panic at site " + p.Site
}

// PanicAt raises an injected panic attributed to the site.
func PanicAt(site string) {
	panic(&InjectedPanic{Site: site})
}

// IsInjected reports whether a recovered value is a simulated fault.
func IsInjected(r any) bool {
	_, ok := r.(*InjectedPanic)
	return ok
}

// PanicRecord is one recovered panic, as kept by RecordPanic.
type PanicRecord struct {
	Site     string // recovery site that caught it
	Value    string // rendered panic value
	Injected bool
	Stack    string
}

// panicLog keeps the most recent recovered panics for observability
// (service metrics, post-mortem in tests).
var (
	panicMu    sync.Mutex
	panicCount atomic.Int64
	panicRing  []PanicRecord
)

const panicRingSize = 16

// RecordPanic records a panic swallowed by a recovery site. Every
// recover() in the module must either re-panic or pass the recovered
// value here (enforced by mbalint's recoverguard analyzer); the record
// is what keeps contained failures observable instead of silent.
func RecordPanic(site string, r any) {
	panicCount.Add(1)
	rec := PanicRecord{
		Site:     site,
		Value:    fmt.Sprint(r),
		Injected: IsInjected(r),
		Stack:    string(debug.Stack()),
	}
	panicMu.Lock()
	panicRing = append(panicRing, rec)
	if len(panicRing) > panicRingSize {
		panicRing = panicRing[len(panicRing)-panicRingSize:]
	}
	panicMu.Unlock()
}

// PanicCount returns the total number of panics recorded.
func PanicCount() int64 { return panicCount.Load() }

// Panics returns a copy of the recent recovered-panic log.
func Panics() []PanicRecord {
	panicMu.Lock()
	defer panicMu.Unlock()
	return append([]PanicRecord(nil), panicRing...)
}
