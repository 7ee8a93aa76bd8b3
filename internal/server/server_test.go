package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"berkmin"
)

// dimacsOf serializes an instance for upload.
func dimacsOf(f *berkmin.Formula) string {
	var buf bytes.Buffer
	if err := berkmin.WriteDimacs(&buf, f); err != nil {
		panic(err)
	}
	return buf.String()
}

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func putFormula(t *testing.T, ts *httptest.Server, id string, f *berkmin.Formula) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/formulas/"+id, strings.NewReader(dimacsOf(f)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, solveReply) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	var rep solveReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	return resp, rep
}

// scrapeMetrics parses the Prometheus exposition into name{labels} -> value.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var v float64
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		fmt.Sscanf(line[i+1:], "%g", &v)
		out[line[:i]] = v
	}
	return out
}

func TestFormulaLifecycle(t *testing.T) {
	_, ts := testServer(t, Config{})
	inst := berkmin.Blocksworld(4, 0, 1)
	putFormula(t, ts, "bw4", inst.Formula)

	// Info endpoint knows the formula.
	resp, err := http.Get(ts.URL + "/formulas/bw4")
	if err != nil {
		t.Fatal(err)
	}
	var info formulaReply
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if info.Vars != inst.Formula.NumVars || info.Clauses != inst.Formula.NumClauses() {
		t.Fatalf("info = %+v, want %d vars / %d clauses", info, inst.Formula.NumVars, inst.Formula.NumClauses())
	}

	// Assumption queries return the same verdicts as a direct solve.
	for _, lit := range []int{1, -1, 2, -2} {
		direct := directVerdict(inst.Formula, lit)
		resp, rep := postJSON(t, ts.URL+"/formulas/bw4/solve", solveRequest{Assumptions: []int{lit}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve(%d) status = %d", lit, resp.StatusCode)
		}
		if rep.Status != direct {
			t.Fatalf("solve(%d) = %s, direct = %s", lit, rep.Status, direct)
		}
		if rep.Status == "SATISFIABLE" {
			checkModel(t, inst.Formula, rep.Model, lit)
		}
	}

	// DELETE, then 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/formulas/bw4", nil)
	if resp, _ := http.DefaultClient.Do(req); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/formulas/bw4/solve", solveRequest{}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("solve after delete = %d, want 404", resp.StatusCode)
	}
}

func directVerdict(f *berkmin.Formula, assumptions ...int) string {
	s := berkmin.New()
	s.AddFormula(f)
	return s.SolveAssuming(assumptions...).Status.String()
}

// checkModel verifies a wire model satisfies the formula and assumption.
func checkModel(t *testing.T, f *berkmin.Formula, model []int, assumption int) {
	t.Helper()
	m := make([]bool, f.NumVars+1)
	seen := false
	for _, l := range model {
		v := l
		if v < 0 {
			v = -v
		}
		if v < len(m) {
			m[v] = l > 0
		}
		if l == assumption {
			seen = true
		}
	}
	if !berkmin.Verify(f, m) {
		t.Fatal("served model does not satisfy the formula")
	}
	if !seen {
		t.Fatalf("served model does not honor assumption %d", assumption)
	}
}

func TestOneShotRawAndProof(t *testing.T) {
	_, ts := testServer(t, Config{})

	// Raw DIMACS body.
	sat := berkmin.Queens(6)
	resp, err := http.Post(ts.URL+"/solve", "text/plain", strings.NewReader(dimacsOf(sat.Formula)))
	if err != nil {
		t.Fatal(err)
	}
	var rep solveReply
	json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if rep.Status != "SATISFIABLE" {
		t.Fatalf("queens6 = %s (%s)", rep.Status, rep.Error)
	}

	// JSON one-shot with an opt-in DRUP proof, verified end to end.
	unsat := berkmin.Pigeonhole(5)
	_, rep = postJSON(t, ts.URL+"/solve", oneShotRequest{
		Formula: dimacsOf(unsat.Formula),
		Proof:   true,
	})
	if rep.Status != "UNSATISFIABLE" {
		t.Fatalf("hole5 = %s", rep.Status)
	}
	if rep.Proof == "" {
		t.Fatal("no proof artifact returned")
	}
	pr, err := berkmin.CheckDRUP(unsat.Formula, strings.NewReader(rep.Proof))
	if err != nil || !pr.EmptyDerived {
		t.Fatalf("served proof did not verify: %+v, %v", pr, err)
	}
}

func TestBatchInlineFormula(t *testing.T) {
	_, ts := testServer(t, Config{})
	inst := berkmin.Blocksworld(4, 0, 1)
	queries := [][]int{{1}, {-1}, {2}, {-2}, {3}, {-3}}
	b, _ := json.Marshal(batchRequest{Formula: dimacsOf(inst.Formula), Queries: queries})
	resp, err := http.Post(ts.URL+"/solve/batch", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Results []solveReply `json:"results"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if len(out.Results) != len(queries) {
		t.Fatalf("got %d results, want %d", len(out.Results), len(queries))
	}
	for i, q := range queries {
		if want := directVerdict(inst.Formula, q...); out.Results[i].Status != want {
			t.Fatalf("batch[%d] = %s, want %s", i, out.Results[i].Status, want)
		}
	}
	// The batch shared one pool: later queries must have recycled warm
	// solvers instead of deriving fresh ones every time.
	m := scrapeMetrics(t, ts)
	if m["satserved_pool_hits_total"] == 0 {
		t.Fatalf("batch recycled no solvers: %v", m["satserved_pool_hits_total"])
	}
}

func TestQueueFullSheds429(t *testing.T) {
	srv, ts := testServer(t, Config{Workers: 1, QueueDepth: 1, FairSlice: -1, MaxDeadline: time.Minute})
	putFormula(t, ts, "hard", berkmin.Pigeonhole(9).Formula)

	// Occupy the single worker and the single queue slot, then expect
	// shedding. The occupying requests run with a generous deadline.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, rep := postJSON(t, ts.URL+"/formulas/hard/solve", solveRequest{TimeoutMS: 30_000})
			if rep.Status == "" {
				errs <- fmt.Errorf("empty reply")
				return
			}
			errs <- nil
		}()
	}
	// Wait until the worker is actually busy and the queue holds the
	// second job.
	deadline := time.Now().Add(5 * time.Second)
	for srv.metrics.inflight.Load() == 0 || len(srv.fast) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never became busy")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/formulas/hard/solve", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	m := scrapeMetrics(t, ts)
	if m["satserved_shed_total"] == 0 {
		t.Fatal("shed_total not incremented")
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestClientDisconnectFreesWorker(t *testing.T) {
	srv, ts := testServer(t, Config{Workers: 1, FairSlice: -1})
	putFormula(t, ts, "hard", berkmin.Pigeonhole(9).Formula)
	putFormula(t, ts, "easy", berkmin.Queens(5).Formula)

	// A pathological request whose client disconnects mid-solve.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/formulas/hard/solve",
		strings.NewReader(`{"timeout_ms": 30000}`))
	req.Header.Set("Content-Type", "application/json")
	disconnected := make(chan struct{})
	go func() {
		http.DefaultClient.Do(req)
		close(disconnected)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.metrics.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("solve never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-disconnected

	// The lone worker must be free again: an easy solve completes fast.
	done := make(chan solveReply, 1)
	go func() {
		_, rep := postJSON(t, ts.URL+"/formulas/easy/solve", solveRequest{})
		done <- rep
	}()
	select {
	case rep := <-done:
		if rep.Status != "SATISFIABLE" {
			t.Fatalf("easy solve after disconnect = %s (%s)", rep.Status, rep.Error)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker still stuck after client disconnect")
	}
	m := scrapeMetrics(t, ts)
	if m["satserved_canceled_total"] == 0 {
		t.Fatal("canceled_total not incremented")
	}
}

// TestFairnessCheapBeforePathological: with one worker and slicing on, a
// cheap query submitted after a pathological one must be answered while
// the pathological one is still running. hole8 spans many 20 ms slices
// (about 0.3 s plain, 4 s under the race detector) yet ends well inside
// its 20 s deadline.
func TestFairnessCheapBeforePathological(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, FairSlice: 20 * time.Millisecond})
	putFormula(t, ts, "hard", berkmin.Pigeonhole(8).Formula)
	putFormula(t, ts, "easy", berkmin.Queens(5).Formula)

	hardDone := make(chan solveReply, 1)
	go func() {
		_, rep := postJSON(t, ts.URL+"/formulas/hard/solve", solveRequest{TimeoutMS: 20_000})
		hardDone <- rep
	}()
	time.Sleep(30 * time.Millisecond) // let the pathological job claim the worker

	start := time.Now()
	_, rep := postJSON(t, ts.URL+"/formulas/easy/solve", solveRequest{})
	cheapLatency := time.Since(start)
	if rep.Status != "SATISFIABLE" {
		t.Fatalf("cheap query = %s (%s)", rep.Status, rep.Error)
	}
	if cheapLatency > 5*time.Second {
		t.Fatalf("cheap query waited %v behind a pathological one", cheapLatency)
	}
	select {
	case rep := <-hardDone:
		t.Fatalf("cheap query answered only after the pathological one (%s)", rep.Status)
	default:
	}

	rep = <-hardDone
	// The pathological query still completes and reports that it went
	// through the slow lane.
	if rep.Status != "UNSATISFIABLE" {
		t.Fatalf("pathological query = %s (%s)", rep.Status, rep.Error)
	}
	if !rep.Requeued {
		t.Fatal("pathological query was not requeued to the slow lane")
	}
	m := scrapeMetrics(t, ts)
	if m["satserved_requeues_total"] == 0 {
		t.Fatal("requeues_total not incremented")
	}
}

func TestDeadlineReturnsUnknown(t *testing.T) {
	_, ts := testServer(t, Config{FairSlice: -1})
	putFormula(t, ts, "hard", berkmin.Pigeonhole(9).Formula)
	resp, rep := postJSON(t, ts.URL+"/formulas/hard/solve", solveRequest{TimeoutMS: 30})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (a deadline is a served answer)", resp.StatusCode)
	}
	if rep.Status != "UNKNOWN" || rep.Stop != "interrupted" {
		t.Fatalf("reply = %s/%s, want UNKNOWN/interrupted", rep.Status, rep.Stop)
	}
}

func TestAdmissionLimits(t *testing.T) {
	_, ts := testServer(t, Config{MaxVars: 10})
	f := berkmin.Queens(6).Formula // 36 vars
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/formulas/big", strings.NewReader(dimacsOf(f)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT = %d, want 413", resp.StatusCode)
	}

	// Bad id and bad body are 400s.
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/formulas/bad%20id", strings.NewReader("p cnf 1 1\n1 0\n"))
	if resp, _ := http.DefaultClient.Do(req); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id PUT = %d, want 400", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/formulas/ok", strings.NewReader("not dimacs"))
	if resp, _ := http.DefaultClient.Do(req); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body PUT = %d, want 400", resp.StatusCode)
	}
}

// The Test*QueryVariablesBounded tests: MaxVars bounds the variables a
// query names as well as the formula's, on every solving endpoint, and
// refuses an oversized query at admission. An assumption of 1,000,000 on a
// 2-variable formula used to grow the solver to a million variables. A
// literal at exactly MaxVars is still answered.

func TestStoredQueryVariablesBounded(t *testing.T) {
	_, ts := testServer(t, Config{MaxVars: 10})
	putFormula(t, ts, "f", storedQueryFormula(t))
	url := ts.URL + "/formulas/f/solve"
	for _, req := range []solveRequest{
		{Assumptions: []int{11}},
		{Assumptions: []int{1, -1000000}},
		{TempClauses: [][]int{{1, 11}}},
	} {
		if resp, _ := postJSON(t, url, req); resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%+v = %d, want 413", req, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/formulas/f")
	if err != nil {
		t.Fatal(err)
	}
	var info formulaReply
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if info.Pool == nil || info.Pool.Hits+info.Pool.Misses != 0 {
		t.Fatalf("refused queries took a solver: pool %+v", info.Pool)
	}
	resp, rep := postJSON(t, url, solveRequest{Assumptions: []int{-10}, TempClauses: [][]int{{10, 1}}})
	if resp.StatusCode != http.StatusOK || rep.Status != berkmin.StatusSat.String() {
		t.Fatalf("variable 10 = %d/%s, want 200/SAT", resp.StatusCode, rep.Status)
	}
}

func TestOneShotQueryVariablesBounded(t *testing.T) {
	_, ts := testServer(t, Config{MaxVars: 10})
	url := ts.URL + "/solve"
	const formula = "p cnf 2 1\n-1 -2 0\n"
	for _, req := range []solveRequest{
		{TempClauses: [][]int{{-11}}},
		{Assumptions: []int{1000000}},
	} {
		resp, _ := postJSON(t, url, oneShotRequest{Formula: formula, solveRequest: req})
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%+v = %d, want 413", req, resp.StatusCode)
		}
	}
	resp, rep := postJSON(t, url, oneShotRequest{Formula: formula,
		solveRequest: solveRequest{Assumptions: []int{10}, TempClauses: [][]int{{-10, 1}}}})
	if resp.StatusCode != http.StatusOK || rep.Status != berkmin.StatusSat.String() {
		t.Fatalf("variable 10 = %d/%s, want 200/SAT", resp.StatusCode, rep.Status)
	}
}

func TestBatchQueryVariablesBounded(t *testing.T) {
	_, ts := testServer(t, Config{MaxVars: 10})
	post := func(queries [][]int) (int, []solveReply) {
		b, _ := json.Marshal(batchRequest{Formula: "p cnf 2 1\n-1 -2 0\n", Queries: queries})
		resp, err := http.Post(ts.URL+"/solve/batch", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Results []solveReply `json:"results"`
		}
		json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out.Results
	}
	if code, _ := post([][]int{{1}, {-11}}); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("batch naming variable 11 = %d, want 413", code)
	}
	code, res := post([][]int{{10}, {-10, 1}})
	if code != http.StatusOK || len(res) != 2 {
		t.Fatalf("batch naming variable 10 = %d with %d results, want 200 with 2", code, len(res))
	}
	for i, r := range res {
		if r.Status != berkmin.StatusSat.String() {
			t.Fatalf("batch[%d] = %s, want SAT", i, r.Status)
		}
	}
}

// TestOutOfRangeLiteralIs400: a literal beyond the encodable range is a
// parse error. It used to wrap past the int32 range and panic a worker,
// which took the whole daemon down.
func TestOutOfRangeLiteralIs400(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Post(ts.URL+"/solve", "text/plain", strings.NewReader("p cnf 2 1\n1073741824 -1 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range literal = %d, want 400", resp.StatusCode)
	}
}

func TestInvalidAssumptionLiteral(t *testing.T) {
	_, ts := testServer(t, Config{})
	putFormula(t, ts, "f", berkmin.Queens(5).Formula)
	for _, l := range []int{0, 1<<32 + 1} {
		resp, _ := postJSON(t, ts.URL+"/formulas/f/solve", solveRequest{Assumptions: []int{l}})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("assumption %d = %d, want 400", l, resp.StatusCode)
		}
	}
}
