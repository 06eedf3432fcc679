package main

import (
	"math"
	"sort"
	"sync"

	"afp/internal/core"
	"afp/internal/milp"
	"afp/internal/obs"
)

// eventTally is the obs.Sink of a traced pass. It keeps running counts
// instead of the events themselves: an obs.Recorder would hold every
// node and LP event, about 300k of them for one ami49 placement.
type eventTally struct {
	mu sync.Mutex
	// off drops events, so set-up work (a warm-up solve) stays out of
	// the counts.
	off bool
	// adjustLPs counts the cold LPs inside "adjust" spans. Span IDs are
	// unique only within one observer, so it is set only when a single
	// observer feeds the tally: floorpland gives each job an observer of
	// its own and runs two jobs at a time into one sink, where an adjust
	// span of one job would claim the root LPs of the other.
	adjustLPs bool

	events      int
	spanUS      map[string]int64 // total span.end duration by span name
	adjustSpans map[int64]bool   // open spans named "adjust"
	fixed       int              // mipmodel presolve: fixed binaries
	covers      int              // step.start covering rectangles
	bbRefactors int              // search.done refactorizations

	coldSolves, coldIters, coldDegenerate, coldRefactors, coldNonOptimal int
	coldUS                                                               int64
}

func newEventTally(adjustLPs bool) *eventTally {
	return &eventTally{spanUS: map[string]int64{}, adjustSpans: map[int64]bool{}, adjustLPs: adjustLPs}
}

// Emit implements obs.Sink.
func (t *eventTally) Emit(e obs.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.off {
		return
	}
	t.events++
	switch e.Kind {
	case obs.KindSpanStart:
		if t.adjustLPs && e.Name == "adjust" {
			t.adjustSpans[e.Span] = true
		}
	case obs.KindSpanEnd:
		t.spanUS[e.Name] += e.DurUS
		delete(t.adjustSpans, e.Span)
	case obs.KindLPSolve:
		// A cold solve stamped with an open adjust span is one of the
		// post-optimization topology LPs.
		if !e.Warm && t.adjustSpans[e.Span] {
			t.coldSolves++
			t.coldIters += e.Iters
			t.coldDegenerate += e.Degenerate
			t.coldRefactors += e.Refactors
			t.coldUS += e.DurUS
			if e.Status != "optimal" {
				t.coldNonOptimal++
			}
		}
	case obs.KindPresolve:
		if e.Detail == "model" {
			t.fixed += e.Fixed
		}
	case obs.KindStepStart:
		t.covers += e.Covers
	case obs.KindSearchDone:
		t.bbRefactors += e.Refactors
	}
}

func (t *eventTally) setOff(off bool) {
	t.mu.Lock()
	t.off = off
	t.mu.Unlock()
}

// addTo adds the tally's counts into a layer accumulator.
func (t *eventTally) addTo(acc map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	acc["obs.events"] += float64(t.events)
	acc["mipmodel.presolve_fixed"] += float64(t.fixed)
	acc["lp.cold_solves"] += float64(t.coldSolves)
	acc["lp.cold_iters"] += float64(t.coldIters)
	acc["lp.cold_degenerate"] += float64(t.coldDegenerate)
	acc["lp.cold_refactors"] += float64(t.coldRefactors)
	acc["lp.cold_ms"] += float64(t.coldUS) / 1e3
	acc["lp.cold_nonoptimal"] += float64(t.coldNonOptimal)
}

// stepStats adds the per-step solver statistics of one placement into a
// layer accumulator. maxNodes is the step node budget; a step that
// stopped short of optimal before spending it was stopped by the clock.
func stepStats(acc map[string]float64, steps []core.StepTrace, maxNodes int) {
	for _, st := range steps {
		acc["steps"]++
		acc["geom.covers"] += float64(st.Obstacles)
		acc["mipmodel.binaries"] += float64(st.Binaries)
		acc["milp.nodes"] += float64(st.Nodes)
		acc["milp.bb_s"] += st.Elapsed.Seconds()
		acc["lp.warm_iters"] += float64(st.LPIters)
		acc["lp.warm_refactors"] += float64(st.Refactors)
		if st.Status == milp.StatusOptimal {
			acc["steps_optimal"]++
			continue
		}
		if st.Nodes < maxNodes {
			acc["milp.clock_stopped_steps"]++
		}
		if !math.IsInf(st.Gap, 0) && !math.IsNaN(st.Gap) {
			acc["gap_sum"] += st.Gap
			acc["gap_n"]++
		}
	}
}

// finishLayers turns the raw sums of an accumulator into the reported
// per-layer ratios.
func finishLayers(acc map[string]float64) {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	acc["core.step_overhead_s"] = acc["core.place_s"] - acc["milp.bb_s"]
	acc["core.adjust_gain_pct"] = div(acc["gain_sum"], acc["gain_n"])
	acc["geom.covers_per_step"] = div(acc["geom.covers"], acc["steps"])
	acc["mipmodel.binaries_per_step"] = div(acc["mipmodel.binaries"], acc["steps"])
	acc["milp.nodes_per_s"] = div(acc["milp.nodes"], acc["milp.bb_s"])
	acc["milp.steps_optimal_pct"] = 100 * div(acc["steps_optimal"], acc["steps"])
	acc["milp.gap_mean"] = div(acc["gap_sum"], acc["gap_n"])
	acc["lp.iters_per_node"] = div(acc["lp.warm_iters"], acc["milp.nodes"])
	acc["lp.cold_degenerate_pct"] = 100 * div(acc["lp.cold_degenerate"], acc["lp.cold_iters"])
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// overheadPct is the traced-pass slowdown over the untraced pass.
func overheadPct(traced, untraced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return 100 * (traced - untraced) / untraced
}
