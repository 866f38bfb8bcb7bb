package main

import (
	"reflect"
	"testing"
	"time"
)

// The determinism gate: every workload, run twice at smoke size on
// the default and the held-out seed, must pass its known-answer checks
// and repeat its deterministic counts exactly.

const (
	defaultSeed = 1
	heldOutSeed = 7
	smokeWindow = 200 * time.Millisecond
)

// smokeRun sets a workload up once at smoke size, runs one window and
// returns its deterministic counts plus the counts only a completed
// smoke run can compare (replayed circuit sizes, node cache totals).
func smokeRun(t *testing.T, workload string, seed int64) map[string]any {
	t.Helper()
	cfg := config{workload: workload, seed: seed, workdir: t.TempDir(), small: true}
	inst, err := workloads[workload](cfg)
	if err != nil {
		t.Fatalf("%s seed %d: setup: %v", workload, seed, err)
	}
	defer inst.close()
	// A zero-length window runs exactly the counted pass, so how much
	// work the instance does cannot depend on the machine's speed.
	win := measure(inst, 0, nil)
	if win.failed != 0 {
		t.Fatalf("%s seed %d: %d of %d ops failed the known-answer gate", workload, seed, win.failed, len(win.lat))
	}
	if len(win.lat) == 0 {
		t.Fatalf("%s seed %d: no ops ran", workload, seed)
	}
	if inst.passRSS() <= 0 {
		t.Fatalf("%s seed %d: no peak RSS recorded at the end of the counted pass", workload, seed)
	}
	counts := inst.counts()
	counts["undecided_frac"] = inst.undecidedFrac()
	layers := inst.layers(newTracer(), win)
	counts["bitblast.vars"] = layers["bitblast.vars"]
	counts["bitblast.clauses"] = layers["bitblast.clauses"]
	if s, ok := inst.(*svcInst); ok {
		// Both clients stop right after their counted pass, so the
		// node has served a fixed set of batches. Every repeat is
		// answered by the LRU or, once evicted, by the store; which of
		// the two can shift by a few when one client runs several
		// batches ahead of the other, so their sum is compared.
		snap := s.node.Metrics()
		counts["node_cache_answers"] = snap.Cache.Hits + snap.Store.Hits
		if snap.Store.Dropped != 0 || snap.Pool.Rejected != 0 {
			t.Fatalf("service seed %d: store dropped %d writes, pool rejected %d", seed, snap.Store.Dropped, snap.Pool.Rejected)
		}
	}
	return counts
}

func TestDeterministicCounts(t *testing.T) {
	for _, workload := range []string{"raw", "simplified", "service"} {
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			workload, seed := workload, seed
			t.Run(workload, func(t *testing.T) {
				first := smokeRun(t, workload, seed)
				second := smokeRun(t, workload, seed)
				if !reflect.DeepEqual(first, second) {
					t.Fatalf("seed %d: deterministic counts differ between runs:\n first: %v\nsecond: %v", seed, first, second)
				}
			})
		}
	}
}

// TestHeadline checks the paper's headline on the smoke corpus: the
// same identities, at the same budget, are decided more often once
// MBA-Solver has simplified them.
func TestHeadline(t *testing.T) {
	raw := smokeRun(t, "raw", defaultSeed)
	simp := smokeRun(t, "simplified", defaultSeed)
	if raw["decided_frac"].(float64) >= simp["decided_frac"].(float64) {
		t.Fatalf("raw decided %v, simplified %v: simplification should decide more", raw["decided_frac"], simp["decided_frac"])
	}
}

// TestTracedRunReportsEveryLayer runs each workload's traced path and
// checks that every per-layer metric is reported.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	for _, workload := range []string{"raw", "simplified", "service"} {
		cfg := config{workload: workload, seed: defaultSeed, workdir: t.TempDir(), small: true, trace: true, window: 2 * smokeWindow}
		res, _, _, err := runBenchmark(cfg)
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%s: traced run incorrect: %+v", workload, res)
		}
		for _, m := range perLayer {
			if _, ok := res.Metrics[m.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", workload, m.name)
			}
		}
		if res.Metrics["smt.sat_frac"].Value > 0 && res.Metrics["trace.fidelity"].Value != 1 {
			t.Errorf("%s: trace.fidelity = %v, want 1", workload, res.Metrics["trace.fidelity"].Value)
		}
	}
}
