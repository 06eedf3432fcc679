package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"afp/internal/core"
	"afp/internal/milp"
	"afp/internal/mipmodel"
	"afp/internal/netlist"
	"afp/internal/obs"
	"afp/internal/order"
	"afp/internal/route"
)

// neverBinds is the per-step time limit of the batch workloads: node
// budgets bound every step, and a run whose step stopped short of both
// optimality and its node budget is invalid (milp.clock_stopped_steps).
const neverBinds = time.Hour

// pitch is the routing pitch of route-env, for envelopes and router.
const pitch = 0.2

// item is one design of a batch workload with its solver settings.
type item struct {
	d      *netlist.Design
	cfg    core.Config
	rounds int          // adjust rounds after placement; 0 for none
	fp     *core.Result // route-env: the floorplan placed at set-up
}

// outcome is what one timed operation on one item produced.
type outcome struct {
	latency                           time.Duration
	place, adjust, shortest, weighted time.Duration
	steps                             []core.StepTrace
	adjusted                          bool
	gainPct                           float64 // chip-area reduction by adjust
	// util (percent), hpwl, area and wirelength describe the output: the
	// routed chip and routed wirelength where the workload routes, the
	// placed or adjusted chip and its HPWL elsewhere.
	util, hpwl, area, wirelength float64
	// routeWirelength and overflow sum both routing algorithms.
	routeWirelength float64
	overflow        int
	err             error
}

// batchSpec is one batch workload: a fixed design list, a set-up and a
// timed operation per design.
type batchSpec struct {
	items func(tiny bool) []item
	// passSeconds fixes the pass count, round(-seconds / passSeconds),
	// so a run is bounded by count, never by the clock: 3 passes of
	// place-area and wire-adjust and 10 of route-env at -seconds 20, a
	// 26-35 s, 18-30 s and 11-15 s run on the 2-CPU reference host.
	passSeconds float64
	// maxNodes is the per-step node budget, for the clock-stop check.
	maxNodes int
	// setups is how many times an untraced run sets up; setup_s is the
	// median. A cheap set-up repeats more, so one burst of outside load
	// does not move the median.
	setups int
	// prepare finishes the set-up: route-env places every design (traced
	// by o in a traced run); the others warm up on one design, untraced.
	prepare func(ctx context.Context, items []item, o *obs.Observer) []outcome
	// tracedSetup adds the set-up's outcomes to every traced pass's
	// per-layer metrics; set where the set-up is measured work (route-env
	// places its designs there), not where it only warms up.
	tracedSetup bool
	do          func(ctx context.Context, it *item, o *obs.Observer) outcome
}

func runPlaceArea(ctx context.Context, o options) (*report, error) {
	return runBatch(ctx, o, batchSpec{
		items:       placeAreaItems,
		passSeconds: 6.5,
		maxNodes:    8000,
		setups:      5,
		prepare:     warmUp(placeAdjust),
		do:          placeAdjust,
	})
}

func runWireAdjust(ctx context.Context, o options) (*report, error) {
	return runBatch(ctx, o, batchSpec{
		items:       wireAdjustItems,
		passSeconds: 7,
		maxNodes:    600,
		setups:      5,
		prepare:     warmUp(placeAdjust),
		do:          placeAdjust,
	})
}

func runRouteEnv(ctx context.Context, o options) (*report, error) {
	return runBatch(ctx, o, batchSpec{
		items:       routeEnvItems,
		passSeconds: 2,
		maxNodes:    600,
		setups:      3,
		prepare:     placeAll,
		tracedSetup: true,
		do:          routeBoth,
	})
}

// placeAreaItems is Table 1: random designs of 15, 20 and 25 modules
// (two netlist seeds each, Table 1's 1501/2001/2501 and the next) plus
// ami33 and ami49, area objective, group size 3, the floorplan CLI's
// 8000-node step budget, no post-optimization.
func placeAreaItems(tiny bool) []item {
	cfg := core.Config{GroupSize: 3, Workers: 1, MILP: milp.Options{MaxNodes: 8000, TimeLimit: neverBinds}}
	var ds []*netlist.Design
	if tiny {
		ds = []*netlist.Design{netlist.Random(8, 1), netlist.Random(10, 2)}
	} else {
		for _, n := range []int{15, 20, 25} {
			for s := 1; s <= 2; s++ {
				ds = append(ds, netlist.Random(n, int64(100*n+s)))
			}
		}
		ds = append(ds, netlist.AMI33(), netlist.AMI49())
	}
	items := make([]item, len(ds))
	for i, d := range ds {
		items[i] = item{d: d, cfg: cfg}
	}
	return items
}

// wireAdjustItems is Table 2's area+wire objective: random designs of
// 14-18 modules, linear module ordering for odd netlist seeds and random
// ordering for even ones, Quick 600-node placement and three adjust
// rounds. Of seeds 1501-1508 it keeps both that adjust in under 0.2 s
// (1505, 1508) and the two cheapest of the six that stall in the
// topology LP for seconds (1501, 1507), so that three passes fit in a
// run and each design's latency is a median.
func wireAdjustItems(tiny bool) []item {
	seeds := []int64{1501, 1505, 1507, 1508}
	n := func(seed int64) int { return 14 + int(seed%5) }
	if tiny {
		seeds = []int64{3, 4}
		n = func(seed int64) int { return 5 + int(seed) }
	}
	items := make([]item, len(seeds))
	for i, seed := range seeds {
		d := netlist.Random(n(seed), seed)
		cfg := core.Config{
			GroupSize: 3, Workers: 1, Objective: mipmodel.AreaWire, WireWeight: 0.02,
			MILP: milp.Options{MaxNodes: 600, TimeLimit: neverBinds},
		}
		if seed%2 == 1 {
			cfg.Ordering = order.Linear(d)
		} else {
			cfg.Ordering = order.Random(d, seed)
		}
		items[i] = item{d: d, cfg: cfg, rounds: 3}
	}
	return items
}

// routeEnvItems is Table 3 with envelopes: ami33 and random designs of
// 12-20 modules, placed with envelopes at pitch 0.2, Quick 600-node
// budget and three adjust rounds.
func routeEnvItems(tiny bool) []item {
	var ds []*netlist.Design
	if tiny {
		ds = []*netlist.Design{netlist.Random(8, 5)}
	} else {
		ds = append(ds, netlist.AMI33())
		for n := 12; n <= 20; n++ {
			ds = append(ds, netlist.Random(n, int64(3000+n)))
		}
	}
	cfg := core.Config{
		GroupSize: 3, Workers: 1, Envelopes: true, PitchH: pitch, PitchV: pitch,
		MILP: milp.Options{MaxNodes: 600, TimeLimit: neverBinds},
	}
	items := make([]item, len(ds))
	for i, d := range ds {
		items[i] = item{d: d, cfg: cfg, rounds: 3}
	}
	return items
}

// warmUp returns a set-up step that runs the timed operation once,
// untraced, on the smallest design, so the first timed design does not
// pay for a cold heap.
func warmUp(do func(context.Context, *item, *obs.Observer) outcome) func(context.Context, []item, *obs.Observer) []outcome {
	return func(ctx context.Context, items []item, _ *obs.Observer) []outcome {
		small := 0
		for i := range items {
			if len(items[i].d.Modules) < len(items[small].d.Modules) {
				small = i
			}
		}
		return []outcome{do(ctx, &items[small], nil)}
	}
}

// placeAll is route-env's set-up: it places every design and keeps the
// adjusted floorplan for routing.
func placeAll(ctx context.Context, items []item, o *obs.Observer) []outcome {
	outs := make([]outcome, len(items))
	for i := range items {
		var fp *core.Result
		outs[i], fp = placeAndAdjust(ctx, &items[i], o)
		items[i].fp = fp
	}
	return outs
}

// placeAdjust is the timed operation of place-area and wire-adjust.
func placeAdjust(ctx context.Context, it *item, o *obs.Observer) outcome {
	out, _ := placeAndAdjust(ctx, it, o)
	return out
}

// placeAndAdjust places the design with post-optimization split out of
// core.FloorplanCtx, so the placement and adjust layers time separately,
// checks both floorplans and returns the final one.
func placeAndAdjust(ctx context.Context, it *item, o *obs.Observer) (outcome, *core.Result) {
	var out outcome
	cfg := it.cfg
	cfg.Obs = o
	start := time.Now()
	var placed *core.Result
	var err error
	o.Do(ctx, "place", obs.SpanAttrs{Detail: it.d.Name}, func(ctx context.Context) {
		placed, err = core.FloorplanCtx(ctx, it.d, cfg)
	})
	out.place = time.Since(start)
	if err == nil {
		err = checkFloorplan(placed)
	}
	if err != nil {
		out.err = fmt.Errorf("place %s: %w", it.d.Name, err)
		return out, nil
	}
	out.steps = placed.Steps
	final := placed
	if it.rounds > 0 {
		adjustStart := time.Now()
		o.Do(ctx, "adjust", obs.SpanAttrs{Detail: it.d.Name}, func(ctx context.Context) {
			final, err = core.AdjustFloorplanCtx(ctx, it.d, placed, cfg, it.rounds)
		})
		out.adjust = time.Since(adjustStart)
		if err == nil {
			err = checkAdjusted(placed, final, cfg)
		}
		if err != nil {
			out.err = fmt.Errorf("adjust %s: %w", it.d.Name, err)
			return out, nil
		}
		out.adjusted = true
		out.gainPct = 100 * (placed.ChipArea() - final.ChipArea()) / placed.ChipArea()
	}
	out.latency = time.Since(start)
	out.util, out.hpwl = 100*final.Utilization(), final.HPWL()
	out.area, out.wirelength = final.ChipArea(), out.hpwl
	return out, final
}

// routeBoth is route-env's timed operation: route one placed floorplan
// with both algorithms. Its output quality is the mean of the two.
func routeBoth(ctx context.Context, it *item, o *obs.Observer) outcome {
	var out outcome
	start := time.Now()
	for _, alg := range []route.Algorithm{route.ShortestPath, route.WeightedShortestPath} {
		algStart := time.Now()
		var rr *route.Result
		var err error
		o.Do(ctx, "route", obs.SpanAttrs{Detail: alg.String()}, func(context.Context) {
			rr, err = route.Route(it.fp, route.Config{Algorithm: alg, PitchH: pitch, PitchV: pitch})
		})
		if alg == route.ShortestPath {
			out.shortest = time.Since(algStart)
		} else {
			out.weighted = time.Since(algStart)
		}
		if err == nil {
			err = checkRoute(it.fp, rr)
		}
		if err != nil {
			out.err = fmt.Errorf("route %s %v: %w", it.d.Name, alg, err)
			return out
		}
		out.area += rr.FinalArea() / 2
		out.wirelength += rr.Wirelength / 2
		out.routeWirelength += rr.Wirelength
		out.overflow += rr.Overflow
	}
	out.latency = time.Since(start)
	out.util, out.hpwl = 100*it.fp.Utilization(), it.fp.HPWL()
	return out
}

// fingerprint is the work and output of one pass that must repeat
// exactly between passes; anything else means a clock or the scheduler
// decided how much work was done.
type fingerprint struct {
	nodes, lpIters, refactors, overflow int
	util, hpwl, area, wirelength        float64
	coldIters                           int // traced passes only
}

func fingerprintOf(outs []outcome) fingerprint {
	var f fingerprint
	for _, out := range outs {
		for _, st := range out.steps {
			f.nodes += st.Nodes
			f.lpIters += st.LPIters
			f.refactors += st.Refactors
		}
		f.overflow += out.overflow
		f.util += out.util
		f.hpwl += out.hpwl
		f.area += out.area
		f.wirelength += out.wirelength
	}
	return f
}

// pass is one timed pass over the list.
type pass struct {
	outs  []outcome     // indexed like the item list
	wall  time.Duration // sum of the timed operations
	tally *eventTally   // traced passes only
}

func runBatch(ctx context.Context, o options, spec batchSpec) (*report, error) {
	rep := &report{values: map[string]float64{}}
	var items []item
	var setupOuts []outcome
	setupTally := newEventTally(true)
	repeats := spec.setups
	if o.trace {
		repeats = 1
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		var tracer *obs.Observer
		if o.trace {
			tracer = obs.New(setupTally)
		}
		runtime.GC()
		start := time.Now()
		items = spec.items(o.tiny)
		setupOuts = spec.prepare(ctx, items, tracer)
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.values["setup_s"] = median(setups)
	countOutcomes(rep, setupOuts)
	if rep.failed > 0 {
		// Nothing to time when the set-up produced bad inputs.
		return rep, nil
	}

	order := rand.New(rand.NewSource(o.seed)).Perm(len(items))
	passes := int(float64(o.seconds)/spec.passSeconds + 0.5)
	if passes < 1 {
		passes = 1
	}
	if o.tiny {
		passes = 2
	}
	runPass := func(tally *eventTally) pass {
		var tracer *obs.Observer
		if tally != nil {
			tracer = obs.New(tally)
		}
		p := pass{outs: make([]outcome, len(items)), tally: tally}
		for _, i := range order {
			// Each design starts on a collected heap, so its time does
			// not depend on the garbage of the design before it.
			runtime.GC()
			p.outs[i] = spec.do(ctx, &items[i], tracer)
			p.wall += p.outs[i].latency
		}
		return p
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// A traced run needs one untraced pass, as the baseline of the
	// tracing overhead.
	untracedPasses := passes
	if o.trace {
		untracedPasses = 1
	}
	var untraced, traced []pass
	for i := 0; i < untracedPasses; i++ {
		untraced = append(untraced, runPass(nil))
	}
	runtime.ReadMemStats(&after)
	if o.trace {
		// At least two traced passes, so their event counts can be
		// compared.
		for i := 0; i < passes || i < 2; i++ {
			traced = append(traced, runPass(newEventTally(true)))
		}
	}

	all := append(append([]pass(nil), untraced...), traced...)
	for _, p := range all {
		countOutcomes(rep, p.outs)
	}
	if rep.failed > 0 {
		return rep, nil
	}
	rep.invalid = append(rep.invalid, repeatability(setupOuts, all, spec.maxNodes)...)

	if !o.trace {
		endToEndBatch(rep, untraced, after.TotalAlloc-before.TotalAlloc)
		return rep, nil
	}
	if !spec.tracedSetup {
		setupOuts = nil
	}
	perLayerBatch(rep, untraced, traced, setupOuts, setupTally, spec.maxNodes)
	return rep, nil
}

// repeatability lists why a run is invalid: steps stopped by the clock,
// or passes whose work or output differ. Traced and untraced passes
// must agree, and traced passes must also agree on their event counts.
func repeatability(setupOuts []outcome, passes []pass, maxNodes int) []string {
	var why []string
	acc := map[string]float64{}
	for _, out := range setupOuts {
		stepStats(acc, out.steps, maxNodes)
	}
	for _, p := range passes {
		for _, out := range p.outs {
			stepStats(acc, out.steps, maxNodes)
		}
	}
	if n := acc["milp.clock_stopped_steps"]; n > 0 {
		why = append(why, fmt.Sprintf("%.0f steps stopped short of optimal before their node budget", n))
	}
	var first, firstTraced *fingerprint
	for i, p := range passes {
		f := fingerprintOf(p.outs)
		if p.tally != nil {
			f.coldIters = p.tally.coldIters
			if firstTraced == nil {
				firstTraced = &f
			} else if f != *firstTraced {
				why = append(why, fmt.Sprintf("traced pass %d differs from the first traced pass: %+v vs %+v", i, f, *firstTraced))
			}
		}
		common := f
		common.coldIters = 0
		if first == nil {
			first = &common
		} else if common != *first {
			why = append(why, fmt.Sprintf("pass %d differs from pass 0: %+v vs %+v", i, common, *first))
		}
	}
	return why
}

// endToEndBatch fills the end-to-end metrics of untraced passes. Each
// design's latency is its median over the passes, so a burst of load
// from outside the benchmark during one pass does not carry through.
func endToEndBatch(rep *report, passes []pass, allocBytes uint64) {
	lat := make([]float64, len(passes[0].outs))
	total := 0.0
	for i := range lat {
		var ms []float64
		for _, p := range passes {
			ms = append(ms, float64(p.outs[i].latency)/1e6)
		}
		lat[i] = median(ms)
		total += lat[i]
	}
	rep.values["designs_per_s"] = 1e3 * float64(len(lat)) / total
	rep.values["latency_ms_p50"] = quantile(lat, 0.5)
	rep.values["latency_ms_p90"] = quantile(lat, 0.9)
	rep.values["alloc_mb_per_design"] = float64(allocBytes) / 1e6 / float64(len(lat)*len(passes))
	// Every pass produced the same outputs (checked), so the first
	// pass's quality stands for all.
	var util, hpwl, area, wl float64
	for _, out := range passes[0].outs {
		util += out.util
		hpwl += out.hpwl
		area += out.area
		wl += out.wirelength
	}
	k := float64(len(passes[0].outs))
	rep.values["util_pct_mean"] = util / k
	rep.values["hpwl_mean"] = hpwl / k
	rep.values["routed_area_mean"] = area / k
	rep.values["routed_wirelength_mean"] = wl / k
}

// perLayerBatch fills the per-layer metrics: each is the median over the
// traced passes, with the outcomes and events of a traced set-up added
// to every pass.
func perLayerBatch(rep *report, untraced, traced []pass, setupOuts []outcome, setupTally *eventTally, maxNodes int) {
	setupAcc := map[string]float64{}
	addOutcomes(setupAcc, setupOuts, maxNodes)
	setupTally.addTo(setupAcc)
	perPass := map[string][]float64{}
	for _, p := range traced {
		acc := map[string]float64{}
		for k, v := range setupAcc {
			acc[k] = v
		}
		addOutcomes(acc, p.outs, maxNodes)
		p.tally.addTo(acc)
		finishLayers(acc)
		for k, v := range acc {
			perPass[k] = append(perPass[k], v)
		}
	}
	for k, vs := range perPass {
		rep.values[k] = median(vs)
	}
	var tw, uw []float64
	for _, p := range traced {
		tw = append(tw, p.wall.Seconds())
	}
	for _, p := range untraced {
		uw = append(uw, p.wall.Seconds())
	}
	rep.values["obs.trace_overhead_pct"] = overheadPct(median(tw), median(uw))
}

// countOutcomes counts checked outputs and their failures.
func countOutcomes(rep *report, outs []outcome) {
	for _, out := range outs {
		rep.attempted++
		if out.err != nil {
			rep.failed++
			fmt.Println("FAILED:", out.err)
		}
	}
}

// addOutcomes adds the layer times and solver statistics of outcomes to
// a layer accumulator.
func addOutcomes(acc map[string]float64, outs []outcome, maxNodes int) {
	for _, out := range outs {
		acc["core.place_s"] += out.place.Seconds()
		acc["core.adjust_s"] += out.adjust.Seconds()
		acc["route.shortest_s"] += out.shortest.Seconds()
		acc["route.weighted_s"] += out.weighted.Seconds()
		acc["route.overflow"] += float64(out.overflow)
		acc["route.wirelength"] += out.routeWirelength
		if out.adjusted {
			acc["gain_sum"] += out.gainPct
			acc["gain_n"]++
		}
		stepStats(acc, out.steps, maxNodes)
	}
}
