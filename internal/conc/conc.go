// Package conc is the concurrency plumbing every parallel engine shares:
// the worker-count rule (Jobs), the clause-sharing hub between solvers
// (Hub, Share), and the context watcher that maps cancellation onto a
// solver interrupt (OnDone). The portfolio, the cube-and-conquer
// scheduler, the front-end Solver and the serving daemon all take these
// from here, so none of them keeps a private copy that could drift.
package conc

import (
	"context"
	"runtime"
)

// Jobs resolves a requested worker count: a positive request is taken
// as-is, anything else (zero, negative) means "one worker per available
// CPU" — runtime.GOMAXPROCS(0), which respects both the machine size and
// any GOMAXPROCS override the operator set.
func Jobs(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// OnDone arranges for f to run when ctx fires — before OnDone returns if
// ctx has already fired, so work started afterwards sees f's effect. The
// returned stop ends the watch and reports whether f ran; when it did,
// stop returns only after f has finished, so a caller that undoes f's
// effect (clearing an interrupt) can never be overtaken by a late-firing
// f. A context that can never fire costs nothing.
func OnDone(ctx context.Context, f func()) (stop func() bool) {
	if ctx.Done() == nil {
		return neverFired
	}
	if ctx.Err() != nil {
		f()
		return alreadyFired
	}
	done := make(chan struct{})
	unwatch := context.AfterFunc(ctx, func() {
		f()
		close(done)
	})
	return func() bool {
		if unwatch() {
			return false
		}
		<-done
		return true
	}
}

func neverFired() bool   { return false }
func alreadyFired() bool { return true }
