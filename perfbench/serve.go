package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"berkmin"
	"berkmin/internal/server"
)

// serveClients is the number of closed-loop keep-alive clients, one per
// CPU of the 2-CPU machine the baseline was taken on.
const serveClients = 2

// request is one request of the serve stream: a query on a stored
// formula, or a one-shot solve of an inline formula with a DRUP proof.
type request struct {
	stored  int // index into serve.stored; -1 for a one-shot solve
	q       query
	oneshot int // index into serve.oneshots when stored < 0
}

// reply is the part of the server's solve reply the benchmark reads.
type reply struct {
	Status            string  `json:"status"`
	Model             []int   `json:"model"`
	FailedAssumptions []int   `json:"failed_assumptions"`
	RuntimeMS         float64 `json:"runtime_ms"`
	QueueMS           float64 `json:"queue_ms"`
	Requeued          bool    `json:"requeued"`
	Proof             string  `json:"proof"`
}

// serve runs satserved's handler on a loopback listener and drives it with
// closed-loop clients over a fixed, seeded request stream.
type serve struct {
	stored   []*berkmin.Formula
	oneshots []input
	requests []request
	bodies   [][]byte
	want     []berkmin.Status // in-process pool verdict per request, from the first pass

	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	proofs map[int]bool // one-shot formulas whose proof this pass has checked
}

func (w *serve) setup(r *runner, tr *tracer) error {
	rng := rand.New(rand.NewSource(r.seed))
	sp := tr.begin(spanGen, -1, 0)
	n := 1200
	if r.small {
		n = 60
	}
	w.stored = []*berkmin.Formula{
		queryFormula(r.small),
		berkmin.PipelineVerification(2, 3, true, 40).Formula,
	}
	var insts []berkmin.Instance
	for i := int64(0); i < 8; i++ {
		insts = append(insts, berkmin.MiterUnsat(10, 40, 81+i))
	}
	tr.end(sp)
	oneshots, err := generate(tr, "serve", func() []berkmin.Instance { return insts })
	if err != nil {
		return err
	}
	w.oneshots = oneshots
	w.want = nil
	w.requests = make([]request, n)
	w.bodies = make([][]byte, n)
	for i := range w.requests {
		q := &w.requests[i]
		switch {
		case rng.Intn(10) == 0:
			q.stored = -1
			q.oneshot = rng.Intn(len(w.oneshots))
		default:
			q.stored = rng.Intn(len(w.stored))
			q.q = queryStream(rng, w.stored[q.stored].NumVars, 1)[0]
		}
		w.bodies[i], err = w.body(q)
		if err != nil {
			return err
		}
	}

	w.srv = server.New(server.Config{Workers: serveClients})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.srv.Close()
		return fmt.Errorf("listen: %w", err)
	}
	w.hs = &http.Server{Handler: w.srv}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.url = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}

	for i, f := range w.stored {
		var buf bytes.Buffer
		if err := berkmin.WriteDimacs(&buf, f); err != nil {
			return fmt.Errorf("encode stored formula: %w", err)
		}
		sp := tr.begin(spanUpload, -1, int64(i))
		err := w.put(fmt.Sprintf("f%d", i), buf.Bytes())
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// body encodes a request's JSON body.
func (w *serve) body(q *request) ([]byte, error) {
	if q.stored < 0 {
		return json.Marshal(map[string]any{"formula": string(w.oneshots[q.oneshot].text), "proof": true})
	}
	body := map[string]any{"assumptions": q.q.assumps}
	if q.q.temp != nil {
		// Temp-clause queries also ask for a minimized core, at a budget
		// of 1000 conflicts per shrink attempt.
		body["temp_clauses"] = q.q.temp
		body["minimize_core"] = 1000
	}
	return json.Marshal(body)
}

func (w *serve) put(id string, dimacs []byte) error {
	req, err := http.NewRequest(http.MethodPut, w.url+"/formulas/"+id, bytes.NewReader(dimacs))
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return fmt.Errorf("upload %s: %w", id, err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("upload %s: %w", id, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("upload %s: HTTP %d", id, resp.StatusCode)
	}
	return nil
}

func (w *serve) close() {
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx) // a stuck handler is cut off by srv.Close below
	w.srv.Close()
	<-w.served
	w.client.CloseIdleConnections()
	w.hs = nil
}

// reference answers every stored-formula request in-process on a Pool of
// the same formula, for the verdict cross-check.
func (w *serve) reference() {
	pools := make([]*berkmin.Pool, len(w.stored))
	for i, f := range w.stored {
		front := berkmin.New()
		so := berkmin.DefaultSimplifyOptions()
		front.SetSimplify(&so)
		front.AddFormula(f)
		pools[i] = front.Snapshot().NewPool()
	}
	w.want = make([]berkmin.Status, len(w.requests))
	for i, q := range w.requests {
		if q.stored < 0 {
			w.want[i] = berkmin.StatusUnsat
			continue
		}
		s := pools[q.stored].Get()
		var g berkmin.Group
		if q.q.temp != nil {
			g = s.NewClauseGroup()
			for _, c := range q.q.temp {
				s.AddClauseGroup(g, c...)
			}
		}
		w.want[i] = s.SolveAssuming(q.q.assumps...).Status
		if q.q.temp != nil {
			s.ReleaseGroup(g)
		}
		pools[q.stored].Put(s)
	}
}

func (w *serve) pass(r *runner, tr *tracer) (passResult, error) {
	if w.want == nil {
		w.reference()
	}
	w.proofs = map[int]bool{}
	p := passResult{counts: map[string]float64{}}
	lat := make([]time.Duration, len(w.requests))
	replies := make([]*reply, len(w.requests))
	errs := make([]error, len(w.requests))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.requests) {
					return
				}
				lat[i], replies[i], errs[i] = w.do(tr, i)
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.lat = lat

	for i, rep := range replies {
		if errs[i] != nil {
			return p, errs[i]
		}
		w.check(r, tr, i, rep, p.counts)
	}
	return p, nil
}

// do sends request i and decodes the reply; a nil reply means the server
// refused or failed it.
func (w *serve) do(tr *tracer, i int) (time.Duration, *reply, error) {
	q := &w.requests[i]
	path := "/solve"
	if q.stored >= 0 {
		path = fmt.Sprintf("/formulas/f%d/solve", q.stored)
	}
	start := time.Now()
	root := tr.begin(spanRequest, -1, int64(i))
	resp, err := w.client.Post(w.url+path, "application/json", bytes.NewReader(w.bodies[i]))
	if err != nil {
		return 0, nil, fmt.Errorf("request %d: %w", i, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	tr.end(root)
	if err != nil {
		return 0, nil, fmt.Errorf("request %d: %w", i, err)
	}
	if resp.StatusCode != http.StatusOK {
		return end.Sub(start), nil, nil
	}
	var rep reply
	if err := json.Unmarshal(body, &rep); err != nil {
		return 0, nil, fmt.Errorf("request %d: decode reply: %w", i, err)
	}
	if tr != nil {
		// The server's own queue wait and solve time are the request
		// span's children; what remains is HTTP, JSON and scheduling.
		queued := start.Add(time.Duration(rep.QueueMS * float64(time.Millisecond)))
		tr.add(spanQueue, root, int64(i), start, queued)
		tr.add(spanServerSolve, root, int64(i), queued, queued.Add(time.Duration(rep.RuntimeMS*float64(time.Millisecond))))
	}
	return end.Sub(start), &rep, nil
}

// check compares a reply with the in-process verdict, verifies SAT models
// and, once per one-shot formula and pass, the DRUP proof.
func (w *serve) check(r *runner, tr *tracer, i int, rep *reply, counts map[string]float64) {
	r.op(rep != nil && rep.Status != "UNKNOWN")
	counts["server.requests"]++
	if rep == nil || rep.Status == "UNKNOWN" {
		return
	}
	if rep.Requeued {
		counts["server.requeued"]++
	}
	q := &w.requests[i]
	got := berkmin.StatusUnsat
	if rep.Status == "SATISFIABLE" {
		got = berkmin.StatusSat
	}
	if got != w.want[i] {
		r.fail("request %d: server %s, in-process %v", i, rep.Status, w.want[i])
		return
	}
	if q.stored < 0 {
		counts["server.proofs"]++
		counts["server.proof_bytes"] += float64(len(rep.Proof))
		if w.proofs[q.oneshot] {
			return
		}
		w.proofs[q.oneshot] = true
		in := &w.oneshots[q.oneshot]
		sp := tr.begin(spanCheckDRUP, -1, int64(i))
		_, err := berkmin.CheckDRUP(in.formula, strings.NewReader(rep.Proof))
		tr.end(sp)
		if err != nil {
			r.fail("request %d (%s): proof rejected: %v", i, in.name, err)
		}
		return
	}
	if got == berkmin.StatusSat {
		model := make([]bool, len(rep.Model)+1)
		for _, l := range rep.Model {
			if l > 0 && l < len(model) {
				model[l] = true
			}
		}
		if !satisfies(w.stored[q.stored], model, &q.q) {
			r.fail("request %d: model violates the formula, an assumption or a temp clause", i)
		}
	} else if !subset(rep.FailedAssumptions, q.q.assumps) {
		r.fail("request %d: failed assumptions %v not among %v", i, rep.FailedAssumptions, q.q.assumps)
	}
}

func (w *serve) headline(passes []passResult) []named {
	lat := allLatencies(passes)
	rates := make([]float64, len(passes))
	for i, p := range passes {
		rates[i] = float64(len(p.lat)) / p.wall.Seconds()
	}
	return []named{
		{"request_p50_ms", quantile(lat, 0.5), "ms"},
		{"request_p99_ms", quantile(lat, 0.99), "ms"},
		{"requests_per_s", median(rates), "1/s"},
		{"request_samples", float64(len(lat)), "count"},
	}
}
