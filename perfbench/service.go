package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"afp/internal/core"
	"afp/internal/milp"
	"afp/internal/server"
)

const (
	// serviceClients closed-loop clients (one per CPU of the 2-CPU
	// reference host) share the server.
	serviceClients = 2
	// clientRequests per client per pass, of which clientRepeats re-send
	// one of the client's own earlier, completed requests. The 70
	// distinct designs of a pass fit the server's 128-entry cache, so
	// every repeat is a hit whatever the timing.
	clientRequests = 50
	clientRepeats  = 15
	// serviceMaxNodes is the default step node budget floorpland solves
	// with, for the clock-stop check.
	serviceMaxNodes = 30000
	// serviceSetups is how many times an untraced run starts a server
	// and solves the warm-up request; setup_s is the median. One set-up
	// takes about 20 ms, so a single burst of outside load would move a
	// median of a few.
	serviceSetups = 21
)

// request is one generated design a client asks floorpland to solve.
type request struct {
	n    int
	seed int64
}

// clientPlan is client c's request sequence: a fixed catalogue of
// distinct random designs of 8-16 modules in seeded order, with repeats
// requests placed at seeded positions, each re-sending a seeded pick
// among the client's earlier requests. The seed decides the order and
// the cache hits; the set of designs solved is the same for every seed.
func clientPlan(c int, seed int64, requests, repeats int, tiny bool) []request {
	rng := rand.New(rand.NewSource(seed*serviceClients + int64(c)))
	catalogue := make([]request, requests-repeats)
	for k := range catalogue {
		catalogue[k] = request{n: 8 + k%9, seed: int64(1000*(c+1) + k)}
		if tiny {
			catalogue[k].n = 6 + k%3
		}
	}
	rng.Shuffle(len(catalogue), func(i, j int) { catalogue[i], catalogue[j] = catalogue[j], catalogue[i] })
	repeat := make([]bool, requests)
	for _, p := range rng.Perm(requests - 1)[:repeats] {
		repeat[p+1] = true // the first request has nothing to repeat
	}
	plan := make([]request, 0, requests)
	next := 0
	for i := 0; i < requests; i++ {
		if repeat[i] {
			plan = append(plan, plan[rng.Intn(len(plan))])
			continue
		}
		plan = append(plan, catalogue[next])
		next++
	}
	return plan
}

func requestBody(rq request) []byte {
	body, err := json.Marshal(server.SolveRequest{
		Generate: "rand", N: rq.n, Seed: rq.seed,
		Options: server.SolveOptions{PostOptimize: true},
	})
	if err != nil {
		panic(err) // a fixed struct of plain fields always encodes
	}
	return body
}

// service is a floorpland server on a loopback listener in this process.
type service struct {
	srv    *server.Server
	hs     *http.Server
	served chan struct{} // closed when Serve returns
	base   string
	client *http.Client
}

// startService starts a server with default settings; a non-nil tally
// becomes its telemetry sink.
func startService(tally *eventTally) (*service, error) {
	var cfg server.Config
	if tally != nil {
		cfg.Sink = tally
	}
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		// The pool has no jobs yet, so its shutdown cannot fail.
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients}},
	}
	go func() {
		defer close(s.served)
		// Serve returns http.ErrServerClosed once stop shuts it down.
		_ = s.hs.Serve(ln)
	}()
	return s, nil
}

// stop shuts the listener and the server down and waits for both.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s.client.CloseIdleConnections()
	err := s.hs.Shutdown(ctx)
	<-s.served
	if e := s.srv.Shutdown(ctx); err == nil {
		err = e
	}
	return err
}

// reply is the client's record of one request.
type reply struct {
	latency          time.Duration // POST to the full result
	cached           bool
	queueWait, solve time.Duration // cache misses only
	payload          *server.ResultPayload
	status           int // HTTP status of a refused request
	err              error
}

// call sends one request and reads the whole response body.
func (s *service) call(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// solve submits one request, waits for the job on its event stream and
// fetches the result, checking each response.
func (s *service) solve(ctx context.Context, body []byte) (r reply) {
	start := time.Now()
	defer func() { r.latency = time.Since(start) }()
	status, data, err := s.call(ctx, http.MethodPost, "/v1/solve", body)
	if err == nil && status != http.StatusOK && status != http.StatusAccepted {
		r.status = status
		err = fmt.Errorf("submit: HTTP %d: %s", status, strings.TrimSpace(string(data)))
	}
	var sub struct {
		ID     string       `json:"id"`
		State  server.State `json:"state"`
		Cached bool         `json:"cached"`
	}
	if err == nil {
		err = json.Unmarshal(data, &sub)
	}
	if err != nil {
		r.err = err
		return r
	}
	r.cached = sub.Cached
	if !sub.State.Terminal() {
		view, err := s.awaitJob(ctx, sub.ID)
		if err != nil {
			r.err = err
			return r
		}
		if view.State != server.StateDone {
			r.err = fmt.Errorf("job %s ended %s: %s", sub.ID, view.State, view.Error)
			return r
		}
		created, err1 := time.Parse(time.RFC3339Nano, view.CreatedAt)
		started, err2 := time.Parse(time.RFC3339Nano, view.StartedAt)
		finished, err3 := time.Parse(time.RFC3339Nano, view.FinishedAt)
		if err := errors.Join(err1, err2, err3); err != nil {
			r.err = fmt.Errorf("job %s timestamps: %w", sub.ID, err)
			return r
		}
		r.queueWait, r.solve = started.Sub(created), finished.Sub(started)
	}
	status, data, err = s.call(ctx, http.MethodGet, "/v1/jobs/"+sub.ID+"/result", nil)
	if err == nil && status != http.StatusOK {
		r.status = status
		err = fmt.Errorf("result: HTTP %d: %s", status, strings.TrimSpace(string(data)))
	}
	var p server.ResultPayload
	if err == nil {
		err = json.Unmarshal(data, &p)
	}
	if err == nil {
		r.payload = &p
		err = checkPayload(&p)
	}
	r.err = err
	return r
}

// awaitJob follows the job's server-sent event stream to its terminal
// `event: job` frame and returns the job snapshot that frame carries.
func (s *service) awaitJob(ctx context.Context, id string) (*server.JobView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events of job %s: HTTP %d", id, resp.StatusCode)
	}
	// Trace frames are skipped without copying them out of the buffer:
	// the client should cost the shared CPUs as little as it can.
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	terminal := false
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			continue // the rest of a long trace frame
		}
		if err != nil {
			return nil, fmt.Errorf("events of job %s ended without a terminal frame: %w", id, err)
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case string(line) == "event: job":
			terminal = true
		case terminal && bytes.HasPrefix(line, []byte("data: ")):
			var v server.JobView
			if err := json.Unmarshal(line[len("data: "):], &v); err != nil {
				return nil, fmt.Errorf("events of job %s: terminal frame: %w", id, err)
			}
			// Drain the rest so the connection is reused.
			_, _ = io.Copy(io.Discard, br)
			return &v, nil
		}
	}
}

// checkPayload fails a result that is partial, has violations or does
// not place every module.
func checkPayload(p *server.ResultPayload) error {
	switch {
	case p.Partial:
		return fmt.Errorf("%s: partial result", p.Design)
	case len(p.Violations) > 0:
		return fmt.Errorf("%s: %d violations, first %s", p.Design, len(p.Violations), p.Violations[0])
	case p.Placed != p.Modules:
		return fmt.Errorf("%s: %d of %d modules placed", p.Design, p.Placed, p.Modules)
	}
	return nil
}

// load runs every client's plan to completion against s and returns
// the replies in plan order.
func (s *service) load(ctx context.Context, plans [][]request) ([][]reply, time.Duration) {
	replies := make([][]reply, len(plans))
	var wg sync.WaitGroup
	start := time.Now()
	for c, plan := range plans {
		wg.Add(1)
		go func(c int, plan []request) {
			defer wg.Done()
			for _, rq := range plan {
				replies[c] = append(replies[c], s.solve(ctx, requestBody(rq)))
			}
		}(c, plan)
	}
	wg.Wait()
	return replies, time.Since(start)
}

// warmUpRequest is solved once at set-up; no client plan contains it.
var warmUpRequest = request{n: 6, seed: 1}

// setUpService starts a server and solves the warm-up request, which
// also opens the client's connection.
func setUpService(ctx context.Context, tally *eventTally) (*service, error) {
	if tally != nil {
		tally.setOff(true)
		defer tally.setOff(false)
	}
	s, err := startService(tally)
	if err != nil {
		return nil, err
	}
	if r := s.solve(ctx, requestBody(warmUpRequest)); r.err != nil {
		// The warm-up failure is the error worth reporting.
		_ = s.stop()
		return nil, fmt.Errorf("warm-up request: %w", r.err)
	}
	return s, nil
}

func runServiceMix(ctx context.Context, o options) (*report, error) {
	rep := &report{values: map[string]float64{}}
	requests, repeats := clientRequests, clientRepeats
	if o.tiny {
		requests, repeats = 4, 1
	}
	plans := make([][]request, serviceClients)
	for c := range plans {
		plans[c] = clientPlan(c, o.seed, requests, repeats, o.tiny)
	}

	repeatsN := serviceSetups
	if o.trace {
		repeatsN = 1
	}
	var setups []float64
	var s *service
	for i := 0; i < repeatsN; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		if s, err = setUpService(ctx, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.values["setup_s"] = median(setups)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	untraced, untracedWall := s.load(ctx, plans)
	runtime.ReadMemStats(&after)
	if err := s.stop(); err != nil {
		return nil, err
	}
	if !o.trace {
		account(rep, untraced)
		if rep.failed == 0 {
			endToEndService(rep, untraced, untracedWall, after.TotalAlloc-before.TotalAlloc)
		}
		return rep, nil
	}

	tally := newEventTally(false)
	ts, err := setUpService(ctx, tally)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	traced, tracedWall := ts.load(ctx, plans)
	if err := ts.stop(); err != nil {
		return nil, err
	}
	account(rep, untraced)
	account(rep, traced)
	if rep.failed > 0 {
		return rep, nil
	}
	if a, b := serviceFingerprint(untraced), serviceFingerprint(traced); a != b {
		rep.invalid = append(rep.invalid, fmt.Sprintf("traced pass differs from untraced pass: %+v vs %+v", b, a))
	}
	perLayerService(rep, traced, tally, overheadPct(tracedWall.Seconds(), untracedWall.Seconds()))
	return rep, nil
}

// account counts the replies, their failures and the refusals of a
// full queue, and flags steps that the clock stopped.
func account(rep *report, replies [][]reply) {
	acc := map[string]float64{}
	for _, rs := range replies {
		for _, r := range rs {
			rep.attempted++
			if r.status == http.StatusTooManyRequests {
				rep.values["server.rejected"]++
			}
			if r.err != nil {
				rep.failed++
				fmt.Println("FAILED:", r.err)
				continue
			}
			stepStats(acc, r.outcome().steps, serviceMaxNodes)
		}
	}
	if n := acc["milp.clock_stopped_steps"]; n > 0 {
		rep.invalid = append(rep.invalid, fmt.Sprintf("%.0f steps stopped short of optimal before their node budget", n))
	}
}

// outcome maps a checked reply onto the record of a batch operation,
// so the step and repeatability accounting is shared. The payload
// carries no step times, obstacle counts or refactorizations; the
// traced pass takes those from its events.
func (r reply) outcome() outcome {
	p := r.payload
	out := outcome{util: 100 * p.Utilization, hpwl: p.HPWL, area: p.Area, wirelength: p.HPWL}
	for _, v := range p.Steps {
		st := core.StepTrace{Binaries: v.Binaries, Nodes: v.Nodes, LPIters: v.LPIters, Status: milp.StatusLimit, Gap: v.Gap}
		for _, s := range []milp.Status{milp.StatusOptimal, milp.StatusFeasible, milp.StatusInfeasible, milp.StatusUnbounded, milp.StatusDominated} {
			if v.Status == s.String() {
				st.Status = s
			}
		}
		if v.Gap < 0 {
			st.Gap = math.Inf(1) // the payload's -1: no proven bound
		}
		out.steps = append(out.steps, st)
	}
	return out
}

// serviceFingerprint is the solver work and output of a pass, which
// must not depend on timing or tracing.
func serviceFingerprint(replies [][]reply) fingerprint {
	var outs []outcome
	for _, rs := range replies {
		for _, r := range rs {
			outs = append(outs, r.outcome())
		}
	}
	return fingerprintOf(outs)
}

func endToEndService(rep *report, replies [][]reply, wall time.Duration, allocBytes uint64) {
	var ms []float64
	var util, hpwl, area, solved float64
	for _, rs := range replies {
		for _, r := range rs {
			ms = append(ms, float64(r.latency)/1e6)
			if r.cached {
				continue
			}
			// Quality is averaged over the distinct designs solved, so
			// which requests the seed repeats does not weigh in.
			solved++
			util += 100 * r.payload.Utilization
			hpwl += r.payload.HPWL
			area += r.payload.Area
		}
	}
	n := float64(len(ms))
	rep.values["designs_per_s"] = n / wall.Seconds()
	rep.values["latency_ms_p50"] = quantile(ms, 0.5)
	rep.values["latency_ms_p90"] = quantile(ms, 0.9)
	rep.values["util_pct_mean"] = util / solved
	rep.values["hpwl_mean"] = hpwl / solved
	// Nothing is routed: the final chip is the placed one, and its
	// wirelength the HPWL estimate.
	rep.values["routed_area_mean"] = area / solved
	rep.values["routed_wirelength_mean"] = hpwl / solved
	rep.values["alloc_mb_per_design"] = float64(allocBytes) / 1e6 / n
}

func perLayerService(rep *report, replies [][]reply, tally *eventTally, overhead float64) {
	acc := map[string]float64{}
	var queue, solve, over, hit []float64
	hits, total := 0, 0
	for _, rs := range replies {
		for _, r := range rs {
			total++
			if r.cached {
				hits++
				hit = append(hit, float64(r.latency)/1e6)
				continue
			}
			queue = append(queue, float64(r.queueWait)/1e6)
			solve = append(solve, float64(r.solve)/1e6)
			over = append(over, float64(r.latency-r.queueWait-r.solve)/1e6)
			stepStats(acc, r.outcome().steps, serviceMaxNodes)
		}
	}
	tally.addTo(acc)
	tally.mu.Lock()
	acc["geom.covers"] = float64(tally.covers)
	acc["milp.bb_s"] = float64(tally.spanUS["bb"]) / 1e6
	acc["core.adjust_s"] = float64(tally.spanUS["adjust"]) / 1e6
	acc["core.place_s"] = float64(tally.spanUS["solve"])/1e6 - acc["core.adjust_s"]
	acc["lp.warm_refactors"] = float64(tally.bbRefactors)
	tally.mu.Unlock()
	finishLayers(acc)
	acc["server.queue_wait_ms_p50"] = median(queue)
	acc["server.solve_ms_p50"] = median(solve)
	acc["server.overhead_ms_p50"] = median(over)
	acc["server.cache_hit_pct"] = 100 * float64(hits) / float64(total)
	acc["server.hit_latency_ms_p50"] = median(hit)
	acc["obs.trace_overhead_pct"] = overhead
	for k, v := range acc {
		rep.values[k] = v
	}
}
