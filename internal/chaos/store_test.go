package chaos_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mbasolver/internal/fault"
	"mbasolver/internal/leakcheck"
	"mbasolver/internal/service"
	"mbasolver/internal/service/client"
	"mbasolver/internal/smt"
	"mbasolver/internal/store"
)

// storeFaultSpecs covers every disk fault class the store injects:
// outright write failure, torn (short) writes, silent bit flips,
// fsync failure, recovery-read corruption — periodic and probabilistic
// — plus a mix with the dispatch-stop site so timeouts flow through
// the persistence guards while the disk is also lying.
var storeFaultSpecs = []string{
	"store.write:every=2",
	"store.write.short:every=3",
	"store.write.flip:every=2",
	"store.fsync:every=2",
	"store.write:p=0.4,seed=41",
	"store.write.short:p=0.3,seed=43;store.fsync:p=0.3,seed=47",
	"store.write.flip:p=0.3,seed=53;store.write:p=0.2,seed=59",
	"service.stop:p=0.3,seed=61;store.write:p=0.2,seed=67",
}

// solveTruth maps every corpus pair's store key (the canonical route
// key) to its ground truth, so an audit can walk the raw store and
// recognize a persisted wrong verdict.
func solveTruth(t *testing.T) map[string]pair {
	t.Helper()
	truth := make(map[string]pair, len(corpus))
	for _, p := range corpus {
		key, err := (service.BatchItem{Solve: &service.SolveRequest{A: p.a, B: p.b, Width: width}}).RouteKey()
		if err != nil {
			t.Fatal(err)
		}
		truth[key] = p
	}
	return truth
}

// auditStore walks every persisted record and asserts the never-persist
// invariants held under fire: no timeouts, no unavailable degradations,
// and — against ground truth — no wrong verdicts.
func auditStore(t *testing.T, st *store.Store, truth map[string]pair) {
	t.Helper()
	st.Range(func(key string, val []byte) bool {
		if !strings.HasPrefix(key, "solve|") {
			return true
		}
		var v struct {
			Status string `json:"status"`
			Reason string `json:"reason"`
		}
		if err := json.Unmarshal(val, &v); err != nil {
			t.Errorf("record %s is not valid JSON: %v", key, err)
			return true
		}
		if v.Status == smt.Timeout.String() {
			t.Errorf("timeout verdict persisted under %s (reason %q)", key, v.Reason)
		}
		if v.Reason == service.ReasonUnavailable {
			t.Errorf("degraded unavailable answer persisted under %s", key)
		}
		if p, ok := truth[key]; ok && v.Status != p.want.String() {
			t.Errorf("WRONG verdict %q persisted for %s vs %s, want %s", v.Status, p.a, p.b, p.want)
		}
		return true
	})
}

// bootStoreService opens (or reopens) a store in dir and mounts a
// service over it; the returned stop func drains the server before
// closing the store, the ownership order mbaserved follows.
func bootStoreService(t *testing.T, dir string) (*store.Store, *service.Server, *client.Client, func()) {
	t.Helper()
	st, err := store.Open(dir, store.Options{SyncInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("store must always open, corrupt log or not: %v", err)
	}
	svc := service.New(service.Config{Workers: 2, Store: st})
	ts := httptest.NewServer(svc.Handler())
	stop := func() {
		sctx, cancel := contextWithTimeout(10 * time.Second)
		defer cancel()
		if err := svc.Shutdown(sctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
		if err := st.Close(); err != nil {
			t.Errorf("store close: %v", err)
		}
	}
	return st, svc, client.New(ts.URL), stop
}

// TestStoreChaos sweeps every disk fault class over a full
// serve → crash-restart → verify cycle: corpus rounds under injection,
// an audit of what reached the index, then a clean restart from the
// same directory that must boot, recover, and answer the corpus
// exactly — from the store where records survived, by solving where
// they did not.
func TestStoreChaos(t *testing.T) {
	truth := solveTruth(t)
	for _, spec := range storeFaultSpecs {
		t.Run(spec, func(t *testing.T) {
			t.Cleanup(leakcheck.Check(t))
			defer fault.Disable()
			dir := t.TempDir()

			st, _, cl, stop := bootStoreService(t, dir)
			if err := fault.EnableSpec(spec); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				for i, p := range corpus {
					ctx, cancel := contextWithTimeout(time.Minute)
					resp, err := cl.Solve(ctx, service.SolveRequest{A: p.a, B: p.b, Width: width})
					cancel()
					if err != nil {
						t.Fatalf("corpus[%d] under %s: %v", i, spec, err)
					}
					switch resp.Status {
					case "timeout":
						if resp.Reason == "" {
							t.Errorf("corpus[%d]: timeout with no reason", i)
						}
					case p.want.String():
						// Truth survived the chaos.
					default:
						t.Errorf("corpus[%d]: WRONG verdict %q under %s, want %q",
							i, resp.Status, spec, p.want)
					}
				}
			}
			// The index under injection must already satisfy the
			// never-persist invariants — they are enforced at Put time, not
			// by recovery cleanup.
			auditStore(t, st, truth)
			stop()
			fault.Disable()

			// Crash-restart: the node must always come back up, whatever the
			// injected faults left on disk, and what it recovered must be
			// exactly as trustworthy as what it persisted.
			st2, svc2, cl2, stop2 := bootStoreService(t, dir)
			defer stop2()
			auditStore(t, st2, truth)
			for i, p := range corpus {
				ctx, cancel := contextWithTimeout(time.Minute)
				resp, err := cl2.Solve(ctx, service.SolveRequest{A: p.a, B: p.b, Width: width})
				cancel()
				if err != nil {
					t.Fatalf("corpus[%d] post-restart: %v", i, err)
				}
				if resp.Status != p.want.String() {
					t.Fatalf("corpus[%d] post-restart: %q, want %q", i, resp.Status, p.want)
				}
			}
			met := svc2.Metrics()
			if met.Store == nil {
				t.Fatal("restarted node reports no store metrics")
			}
			t.Logf("%s: restart recovered=%d truncated=%d hits=%d poisoned=%v",
				spec, met.Store.Recovered, met.Store.Truncated, met.Store.Hits, met.Store.Poisoned)
		})
	}
}

// TestStoreKillRestartLoop is the kill-at-random-offset loop: each
// iteration serves the corpus, stops cleanly, then truncates the log
// at a seeded pseudo-random offset — the on-disk state an append-only
// log shows after a SIGKILL mid-write (the live-process SIGKILL runs
// in ci.sh; truncation reproduces its disk state deterministically).
// Every restart must boot, and every surviving record must still be
// the truth.
func TestStoreKillRestartLoop(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	defer fault.Disable()
	truth := solveTruth(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "verdicts.log")

	rng := uint64(0xA5A5A5A51234567)
	next := func() uint64 {
		rng += 0x9E3779B97F4A7C15
		z := rng
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}

	for iter := 0; iter < 6; iter++ {
		// Odd iterations also rot a frame on the recovery read path.
		if iter%2 == 1 {
			if err := fault.EnableSpec(fmt.Sprintf("store.recover:p=0.3,seed=%d", 70+iter)); err != nil {
				t.Fatal(err)
			}
		}
		st, _, cl, stop := bootStoreService(t, dir)
		fault.Disable()
		snap := st.Snapshot()
		t.Logf("iter %d: booted with recovered=%d truncated=%d (-%d bytes)",
			iter, snap.Recovered, snap.Truncated, snap.TruncatedBytes)
		auditStore(t, st, truth)

		for i, p := range corpus {
			ctx, cancel := contextWithTimeout(time.Minute)
			resp, err := cl.Solve(ctx, service.SolveRequest{A: p.a, B: p.b, Width: width})
			cancel()
			if err != nil {
				t.Fatalf("iter %d corpus[%d]: %v", iter, i, err)
			}
			if resp.Status != p.want.String() {
				t.Fatalf("iter %d corpus[%d]: %q, want %q", iter, i, resp.Status, p.want)
			}
		}
		auditStore(t, st, truth)
		stop()

		// The kill: cut the log at a random offset. A prefix of an
		// append-only log is exactly what a SIGKILL mid-batch leaves
		// behind (completed write syscalls survive in the page cache;
		// the in-flight one tears).
		data, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 0 {
			cut := int(next() % uint64(len(data)+1))
			if err := os.Truncate(logPath, int64(cut)); err != nil {
				t.Fatal(err)
			}
			t.Logf("iter %d: killed at offset %d of %d", iter, cut, len(data))
		}
	}
}
