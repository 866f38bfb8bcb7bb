package main

import (
	"math/rand"

	"mbasolver/internal/expr"
	"mbasolver/internal/gen"
	"mbasolver/internal/metrics"
)

// Inputs are generated MBA identities (internal/gen) drawn into
// stratified blocks. Which equations reach the SAT solver, and how much
// each costs, depends mostly on the class (linear, poly, non-poly), the
// number of variables and gen's "hard" non-poly flag; a plain random
// corpus of a few hundred equations varies in those proportions from
// seed to seed by enough to move every timing metric. So each block
// holds a fixed quota per stratum, in gen's natural proportions, and
// the seed decides which equations fill the quotas and in what order.

// stratum is an input property the solver's work depends on.
type stratum struct {
	kind metrics.Kind
	vars int
	hard bool
}

// blockQuota is one block's composition: 33 equations per class, the
// variable counts in gen's 1:5:3:2 weighting (non-linear classes have at
// least two variables) and about a tenth of the non-poly ones hard.
var blockQuota = []struct {
	s stratum
	n int
}{
	{stratum{metrics.KindLinear, 1, false}, 3},
	{stratum{metrics.KindLinear, 2, false}, 15},
	{stratum{metrics.KindLinear, 3, false}, 9},
	{stratum{metrics.KindLinear, 4, false}, 6},
	{stratum{metrics.KindPoly, 2, false}, 18},
	{stratum{metrics.KindPoly, 3, false}, 9},
	{stratum{metrics.KindPoly, 4, false}, 6},
	{stratum{metrics.KindNonPoly, 2, false}, 16},
	{stratum{metrics.KindNonPoly, 3, false}, 8},
	{stratum{metrics.KindNonPoly, 4, false}, 6},
	{stratum{metrics.KindNonPoly, 2, true}, 2},
	{stratum{metrics.KindNonPoly, 3, true}, 1},
}

// blockSize is the number of equations in one block.
var blockSize = func() int {
	n := 0
	for _, q := range blockQuota {
		n += q.n
	}
	return n
}()

// equation is one generated identity obf == ground of class kind. pers
// is the index of the solver personality it is checked with, rotating
// within each stratum so every stratum spreads evenly over the
// personalities.
type equation struct {
	obf, ground *expr.Expr
	kind        metrics.Kind
	pers        int
}

// stratifiedCorpus draws blocks stratified blocks of equations from a
// generator seeded with seed. Each block is shuffled, so any prefix of
// whole blocks has the same composition.
func stratifiedCorpus(seed int64, blocks int) []equation {
	g := gen.New(gen.Config{Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	rot := map[stratum]int{}
	var out []equation
	for b := 0; b < blocks; b++ {
		need := map[stratum]int{}
		classNeed := map[metrics.Kind]int{}
		left := 0
		for _, q := range blockQuota {
			need[q.s] = q.n
			classNeed[q.s.kind] += q.n
			left += q.n
		}
		block := make([]equation, 0, blockSize)
		// Draw from the classes whose quotas are still open, in turn,
		// keeping a sample only if its stratum still needs one.
		for i := 0; left > 0; i++ {
			kind := metrics.Kind(i % 3)
			if classNeed[kind] == 0 {
				continue
			}
			var s gen.Sample
			switch kind {
			case metrics.KindLinear:
				s = g.Linear()
			case metrics.KindPoly:
				s = g.Poly()
			default:
				s = g.NonPoly()
			}
			st := stratum{s.Kind, len(expr.Vars(s.Obfuscated)), s.Hard}
			if need[st] == 0 {
				continue
			}
			need[st]--
			classNeed[kind]--
			left--
			block = append(block, equation{obf: s.Obfuscated, ground: s.Ground, kind: kind, pers: rot[st] % 3})
			rot[st]++
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out
}
