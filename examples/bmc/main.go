// Bounded model checking as an incremental query stream: prove a FIFO
// controller (the shape of the SAT-2002 "fifo" instances in the paper's
// Table 10) safe up to a depth, then find the exact failure depth of a
// buggy variant — all through berkmin.BMC, the clause-group-driven
// checker.
//
// BMC keeps ONE solver alive for the whole deepening run: each new frame's
// transition logic is added permanently (learnt clauses about it carry
// from depth to depth), while each depth's "the property fails somewhere
// in frames 0..d" disjunction lives in a clause group that is released as
// the bound advances — temporary clauses evaporate instead of
// accumulating, and the solver's heuristic state follows the stream
// (IncrementalOptions' between-query decay).
package main

import (
	"fmt"

	"berkmin"
)

func main() {
	const (
		ptrBits  = 3 // 8-slot FIFO
		maxDepth = 16
	)

	// 1. The correct FIFO: occupancy can never exceed capacity.
	safe := berkmin.FIFO(ptrBits, false)
	res, err := berkmin.BMC(safe, 20, berkmin.IncrementalOptions())
	if err != nil {
		panic(err)
	}
	fmt.Printf("safe fifo:  %v up to depth %d (no overflow reachable; %d queries, %d conflicts)\n",
		res.Status, res.Depth, res.Queries, res.Stats.Conflicts)

	// 2. The buggy FIFO (missing full-check): the checker stops at the
	// shallowest counterexample.
	buggy := berkmin.FIFO(ptrBits, true)
	res, err = berkmin.BMC(buggy, maxDepth, berkmin.IncrementalOptions())
	if err != nil {
		panic(err)
	}
	fmt.Printf("buggy fifo: %v at depth %d (%d pushes overrun the %d-slot buffer; %d queries)\n",
		res.Status, res.Depth, res.Depth, 1<<ptrBits, res.Queries)
}
