package drup

import (
	"bytes"
	"io"
	"strconv"

	"berkmin/internal/cnf"
)

// Log writes a DRUP trace: the one emitter behind every producer of proof
// lines (the solver, the preprocessor and the cube stitcher), so none of
// them can drift from the format ParseProof reads. Each line goes out in
// one Write call through a reusable buffer, so steady-state logging
// allocates nothing. Every method is a no-op on a nil *Log, which is how a
// producer without a trace attached runs.
type Log struct {
	w    io.Writer
	line []byte
	snap []cnf.Lit
}

// NewLog returns a Log writing to w, or nil (log nothing) when w is nil.
func NewLog(w io.Writer) *Log {
	if w == nil {
		return nil
	}
	return &Log{w: w}
}

// Add logs the addition of a clause; Add(nil) logs the empty clause,
// completing a refutation.
func (l *Log) Add(lits []cnf.Lit) {
	if l != nil {
		l.write(false, lits)
	}
}

// Delete logs the deletion of a clause.
func (l *Log) Delete(lits []cnf.Lit) {
	if l != nil {
		l.write(true, lits)
	}
}

// Edit logs an in-place clause edit: the edited form now is added first
// (it must be RUP against a database that still holds the original), then
// the original old is deleted. old must show the literals as they were
// before the edit; Snapshot takes that copy.
func (l *Log) Edit(now, old []cnf.Lit) {
	if l != nil {
		l.write(false, now)
		l.write(true, old)
	}
}

// Snapshot copies lits into the log's scratch buffer, for an Edit after
// the clause's literals are overwritten. The copy is valid until the next
// Snapshot. On a nil Log it returns nil and costs nothing.
func (l *Log) Snapshot(lits []cnf.Lit) []cnf.Lit {
	if l == nil {
		return nil
	}
	l.snap = append(l.snap[:0], lits...)
	return l.snap
}

// write formats one line — an optional "d " deletion prefix, the literals
// in signed DIMACS form, the terminating 0 and a newline — and writes it.
func (l *Log) write(del bool, lits []cnf.Lit) {
	buf := l.line[:0]
	if del {
		buf = append(buf, 'd', ' ')
	}
	for _, x := range lits {
		buf = strconv.AppendInt(buf, int64(x.Dimacs()), 10)
		buf = append(buf, ' ')
	}
	l.line = append(buf, '0', '\n')
	l.w.Write(l.line)
}

// Additions is a Log's destination that keeps the addition lines and
// drops the deletion lines as they are written (a Log writes one line per
// Write call). Dropping deletions only grows the database a checker
// holds, which keeps every addition RUP, so the kept lines of several
// independent traces remain valid when concatenated.
type Additions struct{ buf bytes.Buffer }

// Write keeps p unless it is a deletion line.
func (a *Additions) Write(p []byte) (int, error) {
	if len(p) > 0 && p[0] == 'd' {
		return len(p), nil
	}
	return a.buf.Write(p)
}

// Bytes returns the kept lines.
func (a *Additions) Bytes() []byte { return a.buf.Bytes() }
