package expr_test

import (
	"bufio"
	"os"
	"strings"
	"testing"

	"mbasolver/internal/expr"
	"mbasolver/internal/parser"
)

// TestDigestGoldenVectors pins expr.Digest to the exact hex values in
// testdata/digests.golden. The digest is a cross-process contract, not
// an implementation detail: the service keys its verdict cache on it,
// the cluster ring shards by it, and every router must compute the
// same owner node for the same expression. Any
// change to canonicalization or the hash serialization that moves
// these values is a breaking change for every deployed cache and ring
// — this test makes that change loud instead of silent.
//
// The golden file is two tab-separated columns: source expression,
// lowercase hex digest. Note the deliberate collisions (x+y and y+x
// share a line value): commutative reordering canonicalizes away.
func TestDigestGoldenVectors(t *testing.T) {
	f, err := os.Open("testdata/digests.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	byDigest := make(map[string][]string)
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines++
		src, want, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		e, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("parsing golden expression %q: %v", src, err)
		}
		if got := expr.HashString(e); got != want {
			t.Errorf("digest of %q = %s, want %s (canonicalization or hash encoding changed — this breaks deployed caches and ring placement)", src, got, want)
		}
		byDigest[want] = append(byDigest[want], src)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines < 10 {
		t.Fatalf("golden file has %d vectors, want >= 10", lines)
	}
	// The file must exercise the intentional-collision case.
	collides := false
	for _, srcs := range byDigest {
		if len(srcs) > 1 {
			collides = true
		}
	}
	if !collides {
		t.Error("golden file has no commutative-collision pair (e.g. x+y and y+x)")
	}
}
