package parser

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"mbasolver/internal/expr"
)

// FuzzParse exercises the lexer/parser for panics, checks that it
// agrees with the reference parser (trees and error strings) on every
// ASCII input, and checks the print-reparse fixpoint on every accepted
// input. Its seeds, one per line of testdata/seeds.txt, are shared with
// internal/expr's canonical-key fuzz target.
func FuzzParse(f *testing.F) {
	data, err := os.ReadFile("testdata/seeds.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if isASCII(src) {
			got, gerr := Parse(src)
			want, werr := RefParse(src)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || gerr == nil && !expr.Equal(got, want) {
				t.Fatalf("Parse(%q) = %v, %v; reference %v, %v", src, got, gerr, want, werr)
			}
		}
		e, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		printed := e.String()
		e2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form %q of %q does not reparse: %v", printed, src, err)
		}
		if !expr.Equal(e, e2) {
			t.Fatalf("print/reparse changed structure: %q -> %q -> %q", src, printed, e2.String())
		}
	})
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}
