package gen

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"mbasolver/internal/expr"
	"mbasolver/internal/metrics"
	"mbasolver/internal/parser"
	"mbasolver/internal/poly"
)

// expandToPolyForm expands an expression into the Σ aᵢ·Π eᵢⱼ shape of
// Definition 2, keeping bitwise sub-expressions opaque (no
// normalization — the generator must produce complex corpora, not
// simplified ones).
func expandToPolyForm(e *expr.Expr, width uint) *expr.Expr {
	return poly.FromExpr(e, width, poly.Atoms(width, poly.NewAtom)).ToExpr()
}

// Save writes samples in the corpus text format: one per line,
// kind<TAB>hard<TAB>ground<TAB>obfuscated. Lines starting with # are
// comments.
func Save(w io.Writer, samples []Sample) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# MBA identity-equation corpus: kind, hard, ground truth, obfuscated")
	for _, s := range samples {
		hard := 0
		if s.Hard {
			hard = 1
		}
		if _, err := fmt.Fprintf(bw, "%s\t%d\t%s\t%s\n", s.Kind, hard, s.Ground, s.Obfuscated); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a corpus file written by Save.
func Load(r io.Reader) ([]Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var out []Sample
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 4 {
			return nil, fmt.Errorf("gen: line %d: want 4 tab-separated fields, got %d", lineNo, len(fields))
		}
		var kind metrics.Kind
		switch fields[0] {
		case "linear":
			kind = metrics.KindLinear
		case "poly":
			kind = metrics.KindPoly
		case "nonpoly":
			kind = metrics.KindNonPoly
		default:
			return nil, fmt.Errorf("gen: line %d: unknown kind %q", lineNo, fields[0])
		}
		ground, err := parser.Parse(fields[2])
		if err != nil {
			return nil, fmt.Errorf("gen: line %d ground: %w", lineNo, err)
		}
		obf, err := parser.Parse(fields[3])
		if err != nil {
			return nil, fmt.Errorf("gen: line %d obfuscated: %w", lineNo, err)
		}
		out = append(out, Sample{
			ID:         len(out) + 1,
			Kind:       kind,
			Ground:     ground,
			Obfuscated: obf,
			Hard:       fields[1] == "1",
		})
	}
	return out, sc.Err()
}

// formallyEqual reports whether two expressions expand to the same
// formal polynomial over canonical bitwise atoms (a cheap sufficient
// check for "trivially equal to any solver's preprocessing").
func formallyEqual(a, b *expr.Expr, width uint) bool {
	atoms := poly.Atoms(width, poly.CanonAtom)
	return poly.FromExpr(a, width, atoms).Equal(poly.FromExpr(b, width, atoms))
}
