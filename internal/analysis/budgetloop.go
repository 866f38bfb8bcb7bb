package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// budgetScopePkgs are the solver hot-path packages whose loops must
// stay budget-aware (matched by import-path suffix so fixtures can
// pose as them). internal/portfolio is on the list because its race
// runs and cancels solves under the same cooperative-cancellation
// contract as the core solver. internal/eval and internal/eval/bitslice joined
// with the bytecode evaluation engine: bulk sampling loops run under
// the same stop-flag contract (the suffix match does not descend, so
// the subpackage is listed explicitly).
var budgetScopePkgs = []string{
	"internal/sat", "internal/bitblast", "internal/smt", "internal/portfolio",
	"internal/eval", "internal/eval/bitslice",
}

func inBudgetScope(pkg *Package) bool {
	for _, suffix := range budgetScopePkgs {
		if strings.HasSuffix(pkg.Path, suffix) {
			return true
		}
	}
	return false
}

// BudgetLoopAnalyzer enforces the PR 1 bug class: long-running loops
// in the solver hot paths must consult Budget.Stop or the deadline,
// directly or via a callee. Three rules, all scoped to internal/sat,
// internal/bitblast and internal/smt:
//
//  1. An infinite `for` (no condition) in a function that holds budget
//     state — a Budget-typed parameter or a receiver with stop/deadline
//     fields — must consult the budget somewhere in the loop.
//  2. A non-range `for` loop in a function reachable from budget-holding
//     code must consult the budget if its body drives recursive work
//     (reaches a function that can call itself). Range loops are exempt:
//     they are bounded by their operand.
//  3. A budget-holding function that checks its budget must do so before
//     any heavy call (one that reaches recursion without consulting the
//     budget) — checking only after the expensive phase re-creates the
//     pre-PR 1 starvation.
func BudgetLoopAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "budgetloop",
		Doc:  "solver hot-path loops must consult Budget.Stop or the deadline",
		Run:  runBudgetLoop,
	}
}

func runBudgetLoop(prog *Program) []Finding {
	g := buildCallGraph(prog)
	consult := g.transitiveConsult()
	recursive := g.recursiveFuncs()
	reachesRec := g.reachesSet(recursive)

	var roots []string
	for key, n := range g.nodes {
		if inBudgetScope(n.pkg) && (n.budgetParam || n.budgetReceiver) {
			roots = append(roots, key)
		}
	}
	sort.Strings(roots)
	hot := g.reachableFrom(roots)

	var findings []Finding
	for key, n := range g.nodes {
		if !inBudgetScope(n.pkg) || n.exempt {
			continue
		}
		findings = append(findings, checkLoops(g, n, key, consult, reachesRec, hot)...)
		if n.budgetParam && n.directConsult {
			findings = append(findings, checkConsultOrder(g, n, consult, reachesRec)...)
		}
	}
	return findings
}

// checkLoops applies rules 1 and 2 to every for loop in the node.
func checkLoops(g *callGraph, n *funcNode, key string, consult, reachesRec, hot map[string]bool) []Finding {
	var findings []Finding
	inspectShallow(n.body, func(node ast.Node) bool {
		loop, ok := node.(*ast.ForStmt)
		if !ok {
			return true
		}
		if loopConsults(g, n, loop, consult) {
			return true
		}
		if loop.Cond == nil && (n.budgetParam || n.budgetReceiver) {
			findings = append(findings, Finding{
				Pos:     loop.Pos(),
				Message: fmt.Sprintf("infinite for loop in budget-holding function %s never consults Budget.Stop or the deadline", n.name()),
			})
			return true
		}
		if hot[key] {
			if callee := loopRecursiveCallee(g, n, loop, reachesRec); callee != "" {
				findings = append(findings, Finding{
					Pos:     loop.Pos(),
					Message: fmt.Sprintf("loop drives recursive work (%s) without consulting Budget.Stop or the deadline", callee),
				})
			}
		}
		return true
	})
	return findings
}

// loopConsults reports whether the loop — condition, post statement or
// body, nested literals excluded — consults the budget directly or
// through a callee.
func loopConsults(g *callGraph, n *funcNode, loop *ast.ForStmt, consult map[string]bool) bool {
	found := false
	emit := func(ev scanEvent) {
		if ev.atom || (ev.callee != "" && consult[ev.callee]) {
			found = true
		}
	}
	g.scanEvents(n, loop.Cond, emit)
	g.scanEvents(n, loop.Post, emit)
	g.scanEvents(n, loop.Body, emit)
	return found
}

// loopRecursiveCallee returns the key of the first call in the loop
// whose callee reaches recursive work, or "".
func loopRecursiveCallee(g *callGraph, n *funcNode, loop *ast.ForStmt, reachesRec map[string]bool) string {
	found := ""
	g.scanEvents(n, loop, func(ev scanEvent) {
		if found == "" && ev.callee != "" && reachesRec[ev.callee] {
			found = ev.callee
		}
	})
	return found
}

// checkConsultOrder applies rule 3: within a budget-holding function
// that does consult its budget, no heavy call may run before the
// first consult. Events are gathered in source order; the first heavy
// call preceding the first consult is reported.
func checkConsultOrder(g *callGraph, n *funcNode, consult, reachesRec map[string]bool) []Finding {
	type event struct {
		pos     token.Pos
		consult bool
		callee  string // set for heavy calls
	}
	var events []event
	g.scanEvents(n, n.body, func(ev scanEvent) {
		switch {
		case ev.atom:
			events = append(events, event{pos: ev.pos, consult: true})
		case ev.callee != "" && consult[ev.callee]:
			events = append(events, event{pos: ev.pos, consult: true})
		case ev.callee != "" && reachesRec[ev.callee]:
			events = append(events, event{pos: ev.pos, callee: ev.callee})
		}
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	for _, ev := range events {
		if ev.consult {
			return nil
		}
		if ev.callee != "" {
			return []Finding{{
				Pos: ev.pos,
				Message: fmt.Sprintf("%s called before the first budget check in %s; consult Budget.Stop or the deadline before heavy work",
					ev.callee, n.name()),
			}}
		}
	}
	return nil
}
