package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"mbasolver/internal/expr"
	"mbasolver/internal/gen"
)

// goldenPath holds the Simplify output of goldenText and pins it: a
// change that moves any line changes what Simplify returns (or how much
// work it reports), not just how fast.
const goldenPath = "testdata/simplify.golden"

// goldenText simplifies a fixed gen corpus (every class) under both
// bases at widths 8 and 64, one Simplifier per configuration so its
// look-up table fills and hits as it would in a long run, and renders
// every output followed by the configuration's final Stats.
func goldenText() string {
	var b strings.Builder
	for _, basis := range []Basis{BasisConjunction, BasisDisjunction} {
		for _, width := range []uint{8, 64} {
			fmt.Fprintf(&b, "== %v %d\n", basis, width)
			s := New(Options{Width: width, Basis: basis})
			for _, smp := range gen.New(gen.Config{Seed: 20, Width: width, CoeffRange: 300}).Corpus(40) {
				fmt.Fprintf(&b, "%s\n", s.Simplify(smp.Obfuscated))
			}
			fmt.Fprintf(&b, "stats %+v\n", s.Stats())
		}
	}
	return b.String()
}

func TestSimplifyGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")
	got := strings.Split(goldenText(), "\n")
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Fatalf("%s line %d:\n got  %q\n want %q", goldenPath, i+1, g, w)
		}
	}
}

// BenchmarkSimplify simplifies a fixed gen corpus of every class at
// width 64 with one Simplifier per iteration, so each iteration fills
// the look-up table from empty and then hits it.
func BenchmarkSimplify(b *testing.B) {
	corpus := gen.New(gen.Config{Seed: 20}).Corpus(40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := Default()
		for _, smp := range corpus {
			simplifySink = s.Simplify(smp.Obfuscated)
		}
	}
}

// simplifySink keeps BenchmarkSimplify's results live.
var simplifySink *expr.Expr
