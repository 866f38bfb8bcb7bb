package parser_test

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"mbasolver/internal/expr"
	"mbasolver/internal/gen"
	"mbasolver/internal/parser"
)

// matchesRef reports how Parse and the reference parser differ on src,
// or "" when they build equal trees or fail with identical errors.
func matchesRef(src string) string {
	got, gerr := parser.Parse(src)
	want, werr := parser.RefParse(src)
	switch {
	case gerr != nil || werr != nil:
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			return fmt.Sprintf("error %v, reference error %v", gerr, werr)
		}
	case !expr.Equal(got, want):
		return fmt.Sprintf("tree %v, reference tree %v", got, want)
	}
	return ""
}

// refCorpus is the differential corpus: the fuzz seeds, generated
// identities of every class (both sides, at two widths), left-deep
// operator chains of 1 to 1024 leaves, deep nesting, and malformed
// inputs.
func refCorpus(t testing.TB) []string {
	data, err := os.ReadFile("testdata/seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	srcs := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for _, cfg := range []gen.Config{{Seed: 1, Width: 8}, {Seed: 7, Width: 64}} {
		for _, s := range gen.New(cfg).Corpus(40) {
			srcs = append(srcs, s.Obfuscated.String(), s.Ground.String())
		}
	}
	rng := rand.New(rand.NewSource(1))
	ops := []string{"|", "^", "&", "+", "-", "*"}
	for n := 1; n <= 1024; n = n*2 + rng.Intn(2) {
		var b strings.Builder
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(ops[rng.Intn(len(ops))])
			}
			b.WriteString([]string{"", "~", "-", "--", "~-"}[rng.Intn(5)])
			if rng.Intn(3) == 0 {
				fmt.Fprintf(&b, "%d", rng.Intn(300))
			} else {
				fmt.Fprintf(&b, "v%d", rng.Intn(4))
			}
		}
		srcs = append(srcs, b.String())
	}
	srcs = append(srcs,
		strings.Repeat("(", 300)+"x"+strings.Repeat(")", 300),
		strings.Repeat("~-", 300)+"7",
		strings.Repeat("x*(", 100)+"y"+strings.Repeat(")", 100),
		"18446744073709551615", "18446744073709551616", "99999999999999999999999",
		"0xffffffffffffffff", "0XAbC", "-0x8000000000000000", "~0", "x_1+_y*Z9",
	)
	return append(srcs,
		"", "  ", "x+", "(x", "x)", "x y", "x++", "0x", "0X", "x & & y", "x$y",
		"1 2", "0x1g", "12abc", "0x1ffffffffffffffff", "((x)", "x+(", "~", "-",
		")", "x*", "x~y", "x(", "(x)(y)", "x<y", "x--", "~~", "2x", "x+(y", "x+y)",
		"((x+y)*z", "x\t+\ny\r", "x\x00", "\x7f", "#", "x,y", "x.y",
	)
}

// TestParseMatchesRef: the precedence-climbing, slab-allocating Parse
// builds the reference parser's trees and fails with its errors, byte
// for byte, on every ASCII input of the corpus.
func TestParseMatchesRef(t *testing.T) {
	for _, src := range refCorpus(t) {
		if diff := matchesRef(src); diff != "" {
			t.Errorf("Parse(%.80q): %s", src, diff)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	var srcs []string
	for _, s := range gen.New(gen.Config{Seed: 1, Width: 8}).Corpus(20) {
		srcs = append(srcs, s.Obfuscated.String(), s.Ground.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, err := parser.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}
