// Package chaos holds the fault-injection chaos suite: the known-answer
// corpus run under every fault class the stack declares (SAT learn/
// propagate, bit-blast allocation, rewriter and context panics, service
// admission and worker faults), across every execution mode (fresh
// solver, incremental Context, racing portfolio.Set, HTTP service).
//
// The contract under test is graceful degradation: injected faults may
// only ever turn answers into Unknowns — never into wrong verdicts,
// leaked goroutines, or dead workers — and once injection stops, every
// mode must answer the full corpus correctly again. The package has no
// non-test code; it exists so `go test ./internal/chaos/ -race` is the
// one command that exercises the whole degradation story.
package chaos
