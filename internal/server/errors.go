package server

import (
	"errors"
	"net/http"

	"berkmin"
)

// Typed sentinel errors of the serving layer. Together with the root
// package's solve errors (berkmin.ErrDeadline, berkmin.ErrCanceled,
// berkmin.ErrInvalidLiteral, ...) they are the complete failure vocabulary
// of the daemon; HTTPStatus maps each class to its response code, so
// handlers never invent status codes inline.
var (
	// ErrQueueFull: the bounded job queue is at capacity; the request was
	// shed (HTTP 429 with Retry-After).
	ErrQueueFull = errors.New("satserved: job queue full")

	// ErrFormulaNotFound: the {id} of a solve request names no stored
	// formula (HTTP 404).
	ErrFormulaNotFound = errors.New("satserved: formula not found")

	// ErrStoreFull: Config.MaxFormulas formulas are already stored
	// (HTTP 507).
	ErrStoreFull = errors.New("satserved: formula store full")

	// ErrFormulaTooLarge: the formula exceeds Config.MaxVars or
	// Config.MaxClauses, or a query's assumption or temp-clause literal
	// names a variable above Config.MaxVars (HTTP 413).
	ErrFormulaTooLarge = errors.New("satserved: formula exceeds configured size limits")

	// ErrClosed: the daemon is shutting down (HTTP 503).
	ErrClosed = errors.New("satserved: server closed")
)

// HTTPStatus maps an error from the solving or admission path to the HTTP
// status code the response carries. A deadline-exceeded or budget-exhausted
// solve is NOT an HTTP error: the request was served, the answer is
// "unknown within the allotted budget" (200 with status=UNKNOWN and the
// stop reason) — only admission and malformed-input failures surface as
// non-200 codes.
func HTTPStatus(err error) int {
	switch {
	case err == nil,
		errors.Is(err, berkmin.ErrDeadline),
		errors.Is(err, berkmin.ErrBudgetExhausted),
		errors.Is(err, berkmin.ErrInterrupted):
		return http.StatusOK
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrFormulaNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrStoreFull):
		return http.StatusInsufficientStorage
	case errors.Is(err, ErrFormulaTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, berkmin.ErrInvalidLiteral):
		return http.StatusBadRequest
	case errors.Is(err, berkmin.ErrCanceled):
		// The client went away; the code is moot but 499-style handling
		// (nothing written) is done by the handler. For a canceled job
		// whose client is still connected (server shutdown), 503.
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}
