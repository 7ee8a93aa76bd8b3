package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"testing"
	"time"

	"berkmin"
	"berkmin/internal/core"
	"berkmin/internal/cube"
	"berkmin/internal/gen"
	"berkmin/internal/server"
)

// BenchmarkSolveSmoke is the CI perf-smoke benchmark: the default BerkMin
// configuration over the small-scale pigeonhole (Hole), graph (Beijing)
// and velev-style (Sss1.0) classes of the paper's evaluation. It tracks
// end-to-end solve cost — parsing-free, generator-fed — so a regression in
// propagation, analysis or database management shows up here even when the
// microbenchmarks stay flat.
func BenchmarkSolveSmoke(b *testing.B) {
	classes := Classes(Small)
	want := map[string]bool{"Hole": true, "Beijing": true, "Sss1.0": true}
	cfg := Config{Name: "berkmin", Opt: core.DefaultOptions()}
	lim := Limits{MaxConflicts: 200_000, MaxTime: 30 * time.Second}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cl := range classes {
			if !want[cl.Name] {
				continue
			}
			for _, inst := range cl.Instances {
				r := RunInstance(inst, cfg, lim)
				if r.Wrong {
					b.Fatalf("%s: wrong answer %v", inst.Name, r.Status)
				}
			}
		}
	}
}

// BenchmarkCubeConquer tracks the full cube-and-conquer pipeline — the
// lookahead cuber, the work-stealing conquest with clause sharing, and
// the verdict assembly — on a fixed UNSAT instance, so regressions in
// splitting cost or scheduler overhead are caught even when the core
// solve benchmarks stay flat.
func BenchmarkCubeConquer(b *testing.B) {
	inst := gen.Pigeonhole(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Loading the master stays inside the timed loop: it is part of
		// every cube-and-conquer call.
		master := core.New(core.DefaultOptions())
		master.AddFormula(inst.Formula)
		r := cube.SolveContext(context.Background(), master, cube.Options{Jobs: 2, MaxCubes: 32})
		if r.Status != core.StatusUnsat {
			b.Fatalf("status = %v", r.Status)
		}
	}
}

// BenchmarkCubeConquerDefault is BenchmarkCubeConquer at the default cube
// budget (CubesPerWorker per worker), the one every caller that leaves
// MaxCubes unset runs with.
func BenchmarkCubeConquerDefault(b *testing.B) {
	inst := gen.Pigeonhole(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		master := core.New(core.DefaultOptions())
		master.AddFormula(inst.Formula)
		r := cube.SolveContext(context.Background(), master, cube.Options{Jobs: 2})
		if r.Status != core.StatusUnsat {
			b.Fatalf("status = %v", r.Status)
		}
	}
}

// streamInstance is the query-stream benchmarks' formula: a satisfiable
// planning encoding on which single assumption queries stay cheap.
func streamInstance() gen.Instance { return gen.Blocksworld(4, 0, 1) }

// queryLit is the q-th assumption of the deterministic query stream:
// variables cycle, polarity alternates.
func queryLit(numVars, q int) int {
	lit := q%numVars + 1
	if q%2 == 1 {
		lit = -lit
	}
	return lit
}

// newStreamPool loads the stream instance with preprocessing on and
// returns a pool over its snapshot.
func newStreamPool(inst gen.Instance) *berkmin.Pool {
	s := berkmin.New()
	so := berkmin.DefaultSimplifyOptions()
	s.SetSimplify(&so)
	s.AddFormula(inst.Formula)
	return s.Snapshot().NewPool()
}

// BenchmarkQueryStream guards the steady-state cost of one pooled query:
// Get (a Reset solver), SolveAssuming, Put. The snapshot is captured once
// outside the loop — the benchmark measures reuse, not capture.
func BenchmarkQueryStream(b *testing.B) {
	inst := streamInstance()
	pool := newStreamPool(inst)
	numVars := inst.Formula.NumVars
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := pool.Get()
		w.SolveAssuming(queryLit(numVars, i))
		pool.Put(w)
	}
}

// BenchmarkPoolTempGroupQuery guards the steady-state cost of one pooled
// temp-clause query: Get, a clause group with two temporary clauses,
// SolveAssuming, ReleaseGroup, Put. Put retires the group and recycles the
// solver, so after the warm-up query every Get is a hit; the benchmark
// fails if the pool misses or drops (a clone per query would be back).
func BenchmarkPoolTempGroupQuery(b *testing.B) {
	inst := streamInstance()
	pool := newStreamPool(inst)
	numVars := inst.Formula.NumVars
	query := func(i int) {
		w := pool.Get()
		g := w.NewClauseGroup()
		w.AddClauseGroup(g, queryLit(numVars, i), queryLit(numVars, i+7), queryLit(numVars, i+12))
		w.AddClauseGroup(g, queryLit(numVars, i+3), queryLit(numVars, i+10), queryLit(numVars, i+17))
		w.SolveAssuming(queryLit(numVars, i+5))
		w.ReleaseGroup(g)
		pool.Put(w)
	}
	query(0) // the pool's one miss
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query(i + 1)
	}
	b.StopTimer()
	if st := pool.Stats(); st.Misses != 1 || st.Dropped != 0 {
		b.Fatalf("pool %+v: a temp-group query was not recycled", st)
	}
}

// BenchmarkServerQueryStream guards the steady-state cost of one pooled
// query through the full daemon path: HTTP round-trip, JSON codec, queue,
// warm solver. Its ratio to BenchmarkQueryStream is the serving overhead.
func BenchmarkServerQueryStream(b *testing.B) {
	inst := streamInstance()
	srv := server.New(server.Config{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{}

	var dimacs bytes.Buffer
	if err := berkmin.WriteDimacs(&dimacs, inst.Formula); err != nil {
		b.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, base+"/formulas/bench", &dimacs)
	resp, err := client.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("PUT: HTTP %d", resp.StatusCode)
	}

	numVars := inst.Formula.NumVars
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, _ := json.Marshal(struct {
			Assumptions []int `json:"assumptions"`
		}{[]int{queryLit(numVars, i)}})
		resp, err := client.Post(base+"/formulas/bench/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var rep struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || rep.Status == "" {
			b.Fatalf("query %d: HTTP %d, status %q", i, resp.StatusCode, rep.Status)
		}
	}
}
