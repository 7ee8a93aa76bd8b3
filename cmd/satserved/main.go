// Command satserved runs the BerkMin solver as a long-running
// SAT-as-a-service HTTP daemon.
//
// Formulas are uploaded once (parsing and preprocessing are paid at PUT
// time via Snapshot) and queried many times on warm pooled solvers — the
// incremental query-stream workload the engine is built for. The daemon
// sheds overload with 429 + Retry-After, keeps cheap queries from starving
// behind pathological ones with sliced two-lane scheduling, honors
// per-request deadlines, cancels mid-solve on client disconnect, and
// exports Prometheus metrics on /metrics.
//
// Usage:
//
//	satserved -listen :8080
//	curl -X PUT  localhost:8080/formulas/f --data-binary @formula.cnf
//	curl -X POST localhost:8080/formulas/f/solve -d '{"assumptions":[1,-2]}'
//	curl -X POST localhost:8080/solve --data-binary @formula.cnf
//	curl localhost:8080/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"berkmin/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	var cfg server.Config
	var (
		listen = flag.String("listen", ":8080", "address to listen on")
		grace  = flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight requests")
	)
	flag.IntVar(&cfg.Workers, "workers", 0, "concurrent solve workers (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.QueueDepth, "queue", 0, "queue depth per lane before shedding with 429 (0 = default 2048)")
	flag.IntVar(&cfg.PoolSize, "pool", 0, "idle warm solvers retained per formula (0 = 2*workers)")
	flag.IntVar(&cfg.MaxFormulas, "max-formulas", 0, "stored formula cap (0 = default 256)")
	flag.IntVar(&cfg.MaxVars, "max-vars", 0, "per-formula variable cap, also applied to the variables a query's assumptions and temp_clauses name (0 = unlimited)")
	flag.IntVar(&cfg.MaxClauses, "max-clauses", 0, "per-formula clause cap (0 = unlimited)")
	flag.Int64Var(&cfg.MaxBodyBytes, "max-body", 0, "request body byte cap (0 = default 64 MiB)")
	flag.IntVar(&cfg.MaxBatch, "max-batch", 0, "queries per batch request (0 = default 4096)")
	flag.DurationVar(&cfg.DefaultDeadline, "deadline", 0, "default per-request deadline (0 = 10s)")
	flag.DurationVar(&cfg.MaxDeadline, "max-deadline", 0, "per-request deadline ceiling (0 = 60s)")
	flag.DurationVar(&cfg.FairSlice, "slice", 0, "first-slice budget of the fairness scheduler (0 = 25ms, negative disables)")
	flag.BoolVar(&cfg.SkipSimplify, "no-simplify", false, "skip SatELite-style preprocessing of uploaded formulas")
	flag.Parse()

	srv := server.New(cfg)
	hs := &http.Server{Addr: *listen, Handler: srv}

	workers := cfg.Workers
	if workers <= 0 {
		workers = server.DefaultConfig().Workers
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "satserved listening on %s (%d workers)\n", *listen, workers)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		return 1
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "satserved: %v, draining (grace %v)\n", s, *grace)
	}

	// Graceful drain: stop accepting connections, let in-flight requests
	// finish inside the grace period, then stop the workers.
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "satserved: shutdown: %v\n", err)
	}
	srv.Close()
	return 0
}
