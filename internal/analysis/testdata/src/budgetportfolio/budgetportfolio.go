// Package budgetportfolio exercises the budgetloop analyzer's
// portfolio scope. The harness loads it posing as
// mbasolver/internal/portfolio, whose race runs solves and polls a
// cancellation flag in loops that must obey the same
// cooperative-cancellation contract as the core solver. The loops
// below are the two shapes the analyzer must catch there: a worker
// draining a queue of solves, and a mailbox poll that never ends on
// its own.
package budgetportfolio

import (
	"sync/atomic"
	"time"
)

// Budget mirrors the solver budget shape the analyzer keys on.
type Budget struct {
	Deadline time.Time
	Stop     *atomic.Bool
}

func (b Budget) stopped() bool { return b.Stop != nil && b.Stop.Load() }

// solveCube stands in for one cube's CDCL solve: self-recursive, so
// unbounded work in the analyzer's model.
func solveCube(n int) int {
	if n <= 0 {
		return 0
	}
	return solveCube(n-1) + solveCube(n-2)
}

// drainCubesNoConsult violates rule 2: it is reachable from the
// budget-holding race below and drives one solve per cube without ever
// looking at the stop flag — exactly the bug class where a cancelled
// portfolio keeps burning a full cube fan-out.
func drainCubesNoConsult(cubes []int) int {
	total := 0
	for i := 0; i < len(cubes); i++ { // want "loop drives recursive work"
		total += solveCube(cubes[i])
	}
	return total
}

// drainCubesConsults is fine: the worker polls the budget between
// cubes.
func drainCubesConsults(b Budget, cubes []int) int {
	total := 0
	for i := 0; i < len(cubes); i++ {
		if b.stopped() {
			return total
		}
		total += solveCube(cubes[i])
	}
	return total
}

// importForeverNoConsult violates rule 1: an import loop that drains a
// mailbox forever without consulting the budget.
func importForeverNoConsult(b Budget, mailbox chan int) int {
	total := 0
	for { // want "infinite for loop in budget-holding function importForeverNoConsult never consults"
		select {
		case c := <-mailbox:
			total += c
		default:
			if total > 100 {
				return total
			}
		}
	}
}

// importForeverConsults is fine: it checks the stop flag between
// items.
func importForeverConsults(b Budget, mailbox chan int) int {
	total := 0
	for {
		if b.Stop != nil && b.Stop.Load() {
			return total
		}
		select {
		case c := <-mailbox:
			total += c
		default:
			return total
		}
	}
}

// Race holds the budget and reaches every helper, making them hot.
func Race(b Budget, cubes []int, mailbox chan int) int {
	if b.stopped() {
		return 0
	}
	total := drainCubesNoConsult(cubes) + drainCubesConsults(b, cubes)
	total += importForeverNoConsult(b, mailbox) + importForeverConsults(b, mailbox)
	return total
}
