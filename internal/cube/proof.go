package cube

import (
	"io"

	"berkmin/internal/cnf"
	"berkmin/internal/drup"
)

// Proof stitching. An all-UNSAT cube run is reassembled into one DRUP
// refutation of the input formula in two parts:
//
//  1. Every worker's trace, concatenated, without deletion lines: each
//     worker logs into a drup.Additions, which drops them as they are
//     written. Each worker started from a clone holding exactly the
//     problem clauses and its learnt clauses are RUP against what it held
//     when it learnt them (assumptions enter conflict analysis as
//     decisions, never as clauses), so each trace is valid on its own;
//     RUP is monotone under clause additions, so the traces stay valid
//     when interleaved whole — and dropping deletions only grows the
//     database, which preserves RUP too.
//
//  2. The split tree, emitted in post-order as one negated cube per
//     node. A leaf the cuber refuted has a cube that unit propagation
//     alone falsifies against the problem clauses. A leaf a worker
//     refuted has a cube whose assertion replays the propagation chain
//     that made the worker's final assumption fail — the chain's
//     antecedents are problem clauses and trace-logged learnt clauses,
//     all present after part 1. An internal node's negated cube is RUP
//     from its two children (asserting the cube makes one child clause
//     force the split literal and the other forbid it). The root's cube
//     is empty, so the last line is the empty clause, completing the
//     refutation.
//
// The result checks with package drup against the formula the workers
// solved — callers that preprocessed first must prepend the
// preprocessor's own trace, exactly as the sequential front-end does.

// stitch writes the composed proof: the workers' addition-only traces
// (nil when the cuber refuted everything itself), then the tree lines.
func stitch(w io.Writer, traces []*drup.Additions, root *node) {
	for _, tr := range traces {
		w.Write(tr.Bytes())
	}
	log := drup.NewLog(w)
	var path []cnf.Lit
	var walk func(n *node)
	walk = func(n *node) {
		if n.lit != 0 {
			path = append(path, n.lit.Not())
		}
		if n.left != nil {
			walk(n.left)
			walk(n.right)
		}
		log.Add(path)
		if n.lit != 0 {
			path = path[:len(path)-1]
		}
	}
	walk(root)
}
