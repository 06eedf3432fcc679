package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"afp/internal/core"
	"afp/internal/milp"
	"afp/internal/netlist"
	"afp/internal/obs"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTinyWorkloads runs every workload on its tiny list, untraced and
// traced, and checks that the result line is correct and carries every
// metric BENCHMARK.json lists, with its unit.
func TestTinyWorkloads(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.Name, seed: 7, seconds: 1, trace: trace, tiny: true}
			run, ok := workloads[w.Name]
			if !ok {
				t.Fatalf("BENCHMARK.json names workload %q, which perfbench lacks", w.Name)
			}
			rep, err := run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			var out bytes.Buffer
			if err := writeReport(&out, o, rep); err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
			if trace && res.Metrics["milp.clock_stopped_steps"].Value != 0 {
				t.Errorf("%s: clock-stopped steps in a valid run", w.Name)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric
// tables of main.go in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, perfbench has %s", got, want)
	}
	compare := func(kind string, listed []metricDef, code []metricDef) {
		if len(listed) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench prints %d", kind, len(listed), len(code))
		}
		for i := range listed {
			if i < len(code) && listed[i] != code[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %v, perfbench %v", kind, i, listed[i], code[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	compare("end_to_end", e2e, endToEnd)
	compare("per_layer", layer, perLayer)
}

// TestOverlappedFloorplanCountsAsFailed moves one module onto another in
// a legal floorplan and expects the check to fail it and the report to
// count it in failed_pct.
func TestOverlappedFloorplanCountsAsFailed(t *testing.T) {
	d := netlist.Random(6, 1)
	fp, err := core.Floorplan(d, core.Config{Workers: 1, MILP: milp.Options{MaxNodes: 2000, TimeLimit: neverBinds}})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFloorplan(fp); err != nil {
		t.Fatalf("legal floorplan failed its check: %v", err)
	}
	bad := *fp
	bad.Placements = append([]core.Placement(nil), fp.Placements...)
	bad.Placements[1].Env = bad.Placements[0].Env
	bad.Placements[1].Mod = bad.Placements[0].Mod
	rep := &report{values: map[string]float64{}}
	countOutcomes(rep, []outcome{{}, {err: checkFloorplan(&bad)}})
	if rep.failed != 1 || rep.attempted != 2 || rep.failedPct() != 50 {
		t.Errorf("overlap not counted: attempted=%d failed=%d failed_pct=%v", rep.attempted, rep.failed, rep.failedPct())
	}
	if rep.correct() {
		t.Error("a run with a failed output reports correct")
	}
}

// TestServiceRefusalCountsAsFailed sends a request floorpland refuses
// with 400 and expects it counted in failed_pct.
func TestServiceRefusalCountsAsFailed(t *testing.T) {
	s, err := startService(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.stop(); err != nil {
			t.Error(err)
		}
	}()
	ctx := context.Background()
	good := s.solve(ctx, requestBody(request{n: 5, seed: 3}))
	bad := s.solve(ctx, []byte(`{"generate":"no-such-generator"}`))
	if good.err != nil {
		t.Fatalf("valid request failed: %v", good.err)
	}
	if bad.err == nil || bad.status != 400 {
		t.Fatalf("refused request: status %d, err %v", bad.status, bad.err)
	}
	rep := &report{values: map[string]float64{}}
	account(rep, [][]reply{{good, bad}})
	if rep.failed != 1 || rep.attempted != 2 || rep.failedPct() != 50 {
		t.Errorf("refusal not counted: attempted=%d failed=%d failed_pct=%v", rep.attempted, rep.failed, rep.failedPct())
	}
}

// TestClientPlan checks that a plan has the fixed number of repeats and
// that the seed changes only the order, not the designs solved.
func TestClientPlan(t *testing.T) {
	distinct := func(plan []request) map[request]bool {
		m := map[request]bool{}
		for _, rq := range plan {
			m[rq] = true
		}
		return m
	}
	a, b := clientPlan(0, 1, clientRequests, clientRepeats, false), clientPlan(0, 2, clientRequests, clientRepeats, false)
	if len(a) != clientRequests || len(distinct(a)) != clientRequests-clientRepeats {
		t.Fatalf("plan has %d requests, %d distinct", len(a), len(distinct(a)))
	}
	for rq := range distinct(a) {
		if !distinct(b)[rq] {
			t.Fatalf("seeds 1 and 2 solve different designs: %v", rq)
		}
	}
	seen, repeats := map[request]bool{}, 0
	for _, rq := range a {
		if seen[rq] {
			repeats++
		}
		seen[rq] = true
	}
	if repeats != clientRepeats {
		t.Errorf("plan repeats %d requests, want %d", repeats, clientRepeats)
	}
}

// TestTallyColdAdjustLPs feeds cold and warm LP events into a tally,
// first from one observer, then from two observers whose span IDs
// collide, as floorpland's concurrent jobs do.
func TestTallyColdAdjustLPs(t *testing.T) {
	lp := func(o *obs.Observer, ctx context.Context, warm bool) {
		o.Emit(obs.Event{Kind: obs.KindLPSolve, Span: obs.SpanID(ctx), Warm: warm, Iters: 10, Status: "optimal"})
	}
	ctx := context.Background()

	single := newEventTally(true)
	o := obs.New(single)
	o.Do(ctx, "place", obs.SpanAttrs{}, func(ctx context.Context) { lp(o, ctx, false) })
	o.Do(ctx, "adjust", obs.SpanAttrs{}, func(ctx context.Context) {
		lp(o, ctx, false)
		lp(o, ctx, true)
	})
	lp(o, ctx, false)
	if single.coldSolves != 1 || single.coldIters != 10 {
		t.Errorf("one observer: %d cold adjust LPs with %d iterations, want 1 and 10", single.coldSolves, single.coldIters)
	}

	// Job A's adjust span and job B's solve span both get span ID 1.
	shared := newEventTally(false)
	a, b := obs.New(shared), obs.New(shared)
	actx, adjust := a.StartSpan(ctx, "adjust")
	bctx, solve := b.StartSpan(ctx, "solve")
	if obs.SpanID(actx) != obs.SpanID(bctx) {
		t.Fatalf("span IDs %d and %d do not collide", obs.SpanID(actx), obs.SpanID(bctx))
	}
	lp(b, bctx, false) // job B's root LP, not an adjust LP
	lp(a, actx, false)
	solve.End()
	adjust.End()
	if shared.coldSolves != 0 {
		t.Errorf("two observers: %d cold adjust LPs counted, want none", shared.coldSolves)
	}
	if shared.events != 6 {
		t.Errorf("two observers: %d events counted, want 6", shared.events)
	}
}
