// Package server implements satserved: a long-running SAT-as-a-service
// HTTP daemon on top of the berkmin front-end's Snapshot/Pool substrate.
//
// The serving model targets the dominant real workload of incremental SAT
// (IC3/BMC-style query streams): many small assumption-laden solves
// against a mostly-stable formula. A formula is uploaded once
// (PUT /formulas/{id} — parsing and preprocessing are paid there, once,
// via Snapshot), and every subsequent query (POST /formulas/{id}/solve)
// borrows a warm solver from the formula's Pool. One-shot (POST /solve)
// and batch (POST /solve/batch) endpoints cover the remaining shapes.
//
// Overload behavior is explicit: a bounded two-lane job queue sheds excess
// load with 429 + Retry-After, first-slice scheduling keeps cheap queries
// from starving behind pathological ones (see queue.go), per-request
// deadlines are clamped to a configurable ceiling, and client disconnects
// cancel the borrowed solver mid-search through the context plumbing of
// the root package. /metrics exports Prometheus-style counters aggregated
// from the engine's Stats.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"berkmin"
	"berkmin/internal/conc"
)

// Config sizes the daemon. The zero value is usable: every field falls
// back to the default documented on it (use DefaultConfig to see them
// resolved).
type Config struct {
	// Workers is the number of concurrent solve workers (default:
	// GOMAXPROCS). The queue feeds exactly this many solves at a time.
	Workers int
	// QueueDepth bounds each queue lane; a full fast lane sheds new
	// requests with 429 (default 2048).
	QueueDepth int
	// PoolSize caps the idle warm solvers retained per formula
	// (default 2*Workers; it bounds memory, not concurrency).
	PoolSize int
	// MaxFormulas caps the formula store (default 256; 507 beyond it).
	MaxFormulas int
	// MaxVars / MaxClauses reject oversized formulas at admission with
	// 413 (default 0: unlimited). MaxVars also bounds the variables a
	// request's assumptions and temp_clauses name: a query naming one
	// above it is refused with 413 before a solver is taken.
	MaxVars    int
	MaxClauses int
	// MaxBodyBytes bounds request bodies (default 64 MiB).
	MaxBodyBytes int64
	// MaxBatch caps the queries of one batch request (default 4096).
	MaxBatch int
	// DefaultDeadline applies when a request names no timeout_ms
	// (default 10s); MaxDeadline is the ceiling any request is clamped
	// to (default 60s; 0 = no ceiling). The deadline covers queue wait
	// plus solving — an end-to-end bound.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// FairSlice is the first-slice budget of the two-lane scheduler
	// (default 25ms; negative disables slicing — every job runs to its
	// deadline on first pickup).
	FairSlice time.Duration
	// Simplify preprocesses stored and one-shot formulas (SatELite-style;
	// default on — set SkipSimplify to turn it off).
	SkipSimplify bool
}

// DefaultConfig returns the resolved defaults.
func DefaultConfig() Config { return Config{}.withDefaults() }

func (c Config) withDefaults() Config {
	c.Workers = conc.Jobs(c.Workers)
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2048
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 2 * c.Workers
	}
	if c.MaxFormulas <= 0 {
		c.MaxFormulas = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 10 * time.Second
	}
	if c.MaxDeadline == 0 {
		c.MaxDeadline = time.Minute
	}
	if c.FairSlice == 0 {
		c.FairSlice = 25 * time.Millisecond
	} else if c.FairSlice < 0 {
		c.FairSlice = 0
	}
	return c
}

// Server is the daemon: an http.Handler plus the worker pool behind it.
// Create with New, serve with net/http, stop with Close.
type Server struct {
	cfg     Config
	store   *store
	metrics *metrics

	fast, slow chan *job
	stop       chan struct{}
	closed     atomic.Bool
	wg         sync.WaitGroup

	mux *http.ServeMux
}

// New starts a Server's workers and returns it ready to serve.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		store:   newStore(cfg.MaxFormulas),
		metrics: &metrics{},
		fast:    make(chan *job, cfg.QueueDepth),
		slow:    make(chan *job, cfg.QueueDepth),
		stop:    make(chan struct{}),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("PUT /formulas/{id}", s.handlePutFormula)
	s.mux.HandleFunc("GET /formulas/{id}", s.handleGetFormula)
	s.mux.HandleFunc("DELETE /formulas/{id}", s.handleDeleteFormula)
	s.mux.HandleFunc("POST /formulas/{id}/solve", s.handleSolveStored)
	s.mux.HandleFunc("POST /solve", s.handleSolveOneShot)
	s.mux.HandleFunc("POST /solve/batch", s.handleBatch)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// Close stops accepting jobs and waits for the workers to drain their
// current solves. Handlers still waiting on queued jobs receive 503.
func (s *Server) Close() {
	if s.closed.CompareAndSwap(false, true) {
		close(s.stop)
		s.wg.Wait()
	}
}

// ---- Wire types ----------------------------------------------------------

type solveRequest struct {
	// Assumptions are signed DIMACS literals asserted for this query only.
	Assumptions []int `json:"assumptions,omitempty"`
	// TempClauses are clauses (lists of signed DIMACS literals) enforced
	// for this query only: they are installed into a clause group that is
	// released when the query finishes, so the formula's warm solvers never
	// accumulate them. On an UNSAT answer, temp_in_core reports whether
	// they participated in the contradiction.
	TempClauses [][]int `json:"temp_clauses,omitempty"`
	// MinimizeCore, when nonzero, shrinks the failed_assumptions of an
	// UNSAT answer toward a minimal set by re-solving candidate subsets,
	// spending at most this many conflicts per attempt.
	MinimizeCore uint64 `json:"minimize_core,omitempty"`
	// TimeoutMS is the per-request deadline in milliseconds; 0 uses the
	// server default, and every value is clamped to the server ceiling.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// validate rejects malformed query extensions at admission (before a
// worker or solver is committed to the request), and a literal naming a
// variable above maxVars (0 = no bound) with ErrFormulaTooLarge: a solver
// grows every per-variable array to the largest variable a query names.
func (q *solveRequest) validate(maxVars int) error {
	if err := checkVars(maxVars, "assumption", q.Assumptions); err != nil {
		return err
	}
	for _, c := range q.TempClauses {
		for _, lit := range c {
			if lit == 0 {
				return errors.New("temp_clauses: 0 is not a DIMACS literal")
			}
		}
		if err := checkVars(maxVars, "temp_clauses", c); err != nil {
			return err
		}
	}
	return nil
}

// checkVars returns ErrFormulaTooLarge if a literal of lits names a
// variable above maxVars; maxVars 0 means no bound.
func checkVars(maxVars int, what string, lits []int) error {
	if maxVars <= 0 {
		return nil
	}
	for _, l := range lits {
		if l > maxVars || l < -maxVars {
			return fmt.Errorf("%w: %s literal %d names a variable above %d", ErrFormulaTooLarge, what, l, maxVars)
		}
	}
	return nil
}

type oneShotRequest struct {
	solveRequest
	// Formula is the DIMACS CNF text (a raw non-JSON body is accepted
	// too, as plain DIMACS with no assumptions).
	Formula string `json:"formula"`
	// Proof requests the DRUP unsatisfiability trace as a response
	// artifact (one-shot solves only; meaningful when status is UNSAT).
	Proof bool `json:"proof,omitempty"`
}

type batchRequest struct {
	// Exactly one of ID (a stored formula) or Formula (inline DIMACS,
	// parsed and preprocessed once for the whole batch) must be set.
	ID      string `json:"id,omitempty"`
	Formula string `json:"formula,omitempty"`
	// Queries holds one assumption list per solve.
	Queries [][]int `json:"queries"`
	// TimeoutMS applies per query.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

type solveReply struct {
	Status            string `json:"status"`
	Stop              string `json:"stop,omitempty"`
	Error             string `json:"error,omitempty"`
	Model             []int  `json:"model,omitempty"`
	FailedAssumptions []int  `json:"failed_assumptions,omitempty"`
	// TempInCore is set on an UNSAT answer to a query that supplied
	// temp_clauses when the temporary group is part of the UNSAT core
	// (false means the stored formula and assumptions alone contradict).
	TempInCore   bool    `json:"temp_in_core,omitempty"`
	Conflicts    uint64  `json:"conflicts"`
	Decisions    uint64  `json:"decisions"`
	Propagations uint64  `json:"propagations"`
	RuntimeMS    float64 `json:"runtime_ms"`
	QueueMS      float64 `json:"queue_ms"`
	Requeued     bool    `json:"requeued,omitempty"`
	Proof        string  `json:"proof,omitempty"`
}

type formulaReply struct {
	ID      string             `json:"id"`
	Vars    int                `json:"vars"`
	Clauses int                `json:"clauses"`
	Created time.Time          `json:"created"`
	Pool    *berkmin.PoolStats `json:"pool,omitempty"`
}

type errorReply struct {
	Error string `json:"error"`
}

// ---- Handlers ------------------------------------------------------------

func (s *Server) handlePutFormula(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("put-formula")
	id := r.PathValue("id")
	if !validID(id) {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "formula id must be 1-128 chars of [a-zA-Z0-9._-]"})
		return
	}
	f, err := berkmin.ReadDimacs(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: fmt.Sprintf("parse: %v", err)})
		return
	}
	e := &formulaEntry{
		id:      id,
		vars:    f.NumVars,
		clauses: f.NumClauses(),
		created: time.Now(),
	}
	// Parsing and preprocessing are paid here, once; every query on this
	// formula starts from the snapshot.
	front, err := s.loadFormula(f, nil)
	if err != nil {
		writeError(w, err)
		return
	}
	e.snap = front.Snapshot()
	e.pool = e.snap.NewPool()
	e.pool.SetMaxIdle(s.cfg.PoolSize)
	if err := s.store.put(e); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, formulaReply{ID: id, Vars: e.vars, Clauses: e.clauses, Created: e.created})
}

func (s *Server) handleGetFormula(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("get-formula")
	e, err := s.store.get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	ps := e.pool.Stats()
	writeJSON(w, http.StatusOK, formulaReply{ID: e.id, Vars: e.vars, Clauses: e.clauses, Created: e.created, Pool: &ps})
}

func (s *Server) handleDeleteFormula(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("delete-formula")
	if err := s.store.delete(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSolveStored(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("solve-stored")
	e, err := s.store.get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var req solveRequest
	if err := decodeJSONBody(r, &req, true); err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: err.Error()})
		return
	}
	if err := req.validate(s.cfg.MaxVars); err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	j := &job{ctx: ctx, assumptions: req.Assumptions, tempClauses: req.TempClauses,
		minimizeCore: req.MinimizeCore, pool: e.pool, enqueued: time.Now(), done: make(chan jobResult, 1)}
	if err := s.enqueue(j); err != nil {
		writeError(w, err)
		return
	}
	s.waitJob(w, r, j, nil)
}

func (s *Server) handleSolveOneShot(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("solve")
	var req oneShotRequest
	if strings.Contains(r.Header.Get("Content-Type"), "json") {
		if err := decodeJSONBody(r, &req, false); err != nil {
			writeJSON(w, http.StatusBadRequest, errorReply{Error: err.Error()})
			return
		}
	} else {
		// A raw body is DIMACS text.
		body, err := io.ReadAll(r.Body)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorReply{Error: err.Error()})
			return
		}
		req.Formula = string(body)
	}
	if err := req.validate(s.cfg.MaxVars); err != nil {
		writeError(w, err)
		return
	}
	f, err := berkmin.ReadDimacs(strings.NewReader(req.Formula))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: fmt.Sprintf("parse: %v", err)})
		return
	}
	var proof *bytes.Buffer
	if req.Proof {
		proof = &bytes.Buffer{}
	}
	solver, err := s.loadFormula(f, proof)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	j := &job{ctx: ctx, assumptions: req.Assumptions, tempClauses: req.TempClauses,
		minimizeCore: req.MinimizeCore, solver: solver, enqueued: time.Now(), done: make(chan jobResult, 1)}
	if err := s.enqueue(j); err != nil {
		writeError(w, err)
		return
	}
	s.waitJob(w, r, j, proof)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("batch")
	var req batchRequest
	if err := decodeJSONBody(r, &req, false); err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: err.Error()})
		return
	}
	if len(req.Queries) == 0 {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "batch needs at least one query"})
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: fmt.Sprintf("batch exceeds %d queries", s.cfg.MaxBatch)})
		return
	}
	for _, q := range req.Queries {
		if err := checkVars(s.cfg.MaxVars, "assumption", q); err != nil {
			writeError(w, err)
			return
		}
	}

	var pool *berkmin.Pool
	switch {
	case req.ID != "" && req.Formula != "":
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "set either id or formula, not both"})
		return
	case req.ID != "":
		e, err := s.store.get(req.ID)
		if err != nil {
			writeError(w, err)
			return
		}
		pool = e.pool
	default:
		f, err := berkmin.ReadDimacs(strings.NewReader(req.Formula))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorReply{Error: fmt.Sprintf("parse: %v", err)})
			return
		}
		// Parse and preprocess once for the whole batch — the
		// amortization this endpoint exists for.
		front, err := s.loadFormula(f, nil)
		if err != nil {
			writeError(w, err)
			return
		}
		pool = front.Snapshot().NewPool()
		pool.SetMaxIdle(s.cfg.PoolSize)
		defer s.store.retirePool(pool)
	}

	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	jobs := make([]*job, len(req.Queries))
	results := make([]solveReply, len(req.Queries))
	enqueued := 0
	var admitErr error
	for i, q := range req.Queries {
		j := &job{ctx: ctx, assumptions: q, pool: pool, enqueued: time.Now(), done: make(chan jobResult, 1)}
		if err := s.enqueueWait(j); err != nil {
			admitErr = err
			break
		}
		jobs[i] = j
		enqueued++
	}
	for i := 0; i < enqueued; i++ {
		res := <-jobs[i].done
		results[i] = buildReply(res, nil)
	}
	for i := enqueued; i < len(req.Queries); i++ {
		results[i] = solveReply{Status: berkmin.StatusUnknown.String(), Error: admitErr.Error()}
	}
	writeJSON(w, http.StatusOK, struct {
		Results []solveReply `json:"results"`
	}{results})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("metrics")
	ps, n := s.store.poolStats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.render(w, gauges{
		fastDepth: len(s.fast),
		slowDepth: len(s.slow),
		formulas:  n,
		pool:      ps,
		workers:   s.cfg.Workers,
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("healthz")
	if s.closed.Load() {
		writeError(w, ErrClosed)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		OK bool `json:"ok"`
	}{true})
}

// ---- Helpers -------------------------------------------------------------

// loadFormula enforces the configured size limits and loads f into a new
// front-end solver, preprocessed unless SkipSimplify is set, logging a
// DRUP proof to proof when it is non-nil. A formula found UNSAT while
// loading is not an error: the solve reports it.
func (s *Server) loadFormula(f *berkmin.Formula, proof *bytes.Buffer) (*berkmin.Solver, error) {
	if (s.cfg.MaxVars > 0 && f.NumVars > s.cfg.MaxVars) ||
		(s.cfg.MaxClauses > 0 && f.NumClauses() > s.cfg.MaxClauses) {
		return nil, ErrFormulaTooLarge
	}
	solver := berkmin.New()
	if proof != nil {
		solver.SetProofWriter(proof)
	}
	if !s.cfg.SkipSimplify {
		so := berkmin.DefaultSimplifyOptions()
		solver.SetSimplify(&so)
	}
	if err := solver.AddFormula(f); err != nil && !errors.Is(err, berkmin.ErrSolverDead) {
		return nil, err
	}
	return solver, nil
}

// requestContext derives the job context: the request's (so a client
// disconnect cancels the job) plus the effective deadline — requested or
// default, clamped to the ceiling. The deadline covers queue wait and
// solving end to end.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if s.cfg.MaxDeadline > 0 && (d <= 0 || d > s.cfg.MaxDeadline) {
		d = s.cfg.MaxDeadline
	}
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// waitJob blocks the handler until the job reports, the client goes away,
// or the server closes.
func (s *Server) waitJob(w http.ResponseWriter, r *http.Request, j *job, proof *bytes.Buffer) {
	select {
	case res := <-j.done:
		code := HTTPStatus(res.err)
		if code != http.StatusOK {
			writeJSON(w, code, errorReply{Error: res.err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, buildReply(res, proof))
	case <-r.Context().Done():
		// Client disconnected; the worker sees the same cancellation via
		// j.ctx and frees itself. Nothing useful can be written.
	case <-s.stop:
		writeError(w, ErrClosed)
	}
}

// buildReply converts a job result to the wire shape.
func buildReply(res jobResult, proof *bytes.Buffer) solveReply {
	rep := solveReply{
		Status:       res.res.Status.String(),
		Conflicts:    res.res.Stats.Conflicts,
		Decisions:    res.res.Stats.Decisions,
		Propagations: res.res.Stats.Propagations,
		RuntimeMS:    float64(res.res.Stats.Runtime) / float64(time.Millisecond),
		QueueMS:      float64(res.queueWait) / float64(time.Millisecond),
		Requeued:     res.requeued,
	}
	if res.res.Status == berkmin.StatusUnknown {
		rep.Stop = res.res.Stop.String()
	}
	if res.err != nil {
		rep.Error = res.err.Error()
	}
	if res.res.Status == berkmin.StatusSat {
		rep.Model = modelToDimacs(res.res.Model)
	}
	if len(res.res.FailedAssumptions) > 0 {
		rep.FailedAssumptions = berkmin.FailedAssumptions(res.res)
	}
	rep.TempInCore = res.tempInCore
	if proof != nil && res.res.Status == berkmin.StatusUnsat {
		rep.Proof = proof.String()
	}
	return rep
}

func modelToDimacs(m []bool) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m)-1)
	for v := 1; v < len(m); v++ {
		if m[v] {
			out = append(out, v)
		} else {
			out = append(out, -v)
		}
	}
	return out
}

// decodeJSONBody decodes a JSON request body; allowEmpty treats an empty
// body as the zero request (a stored-formula solve with no assumptions).
func decodeJSONBody(r *http.Request, v any, allowEmpty bool) error {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		if allowEmpty && errors.Is(err, io.EOF) {
			return nil
		}
		return fmt.Errorf("body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps a typed error to its HTTP code; 429 carries Retry-After
// so well-behaved clients back off instead of hammering a full queue.
func writeError(w http.ResponseWriter, err error) {
	code := HTTPStatus(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, errorReply{Error: err.Error()})
}
