package main

import (
	"errors"
	"fmt"
	"math"

	"afp/internal/core"
	"afp/internal/mipmodel"
	"afp/internal/route"
)

// relTol is the relative slack of the "never worse" checks: the solver
// works to 1e-7 relative tolerances, so an honest result stays within it.
const relTol = 1e-6

// checkFloorplan fails a floorplan that does not place every module or
// that Result.Verify finds illegal.
func checkFloorplan(r *core.Result) error {
	if r == nil {
		return errors.New("no floorplan")
	}
	if got, want := len(r.Placements), len(r.Design.Modules); got != want {
		return fmt.Errorf("%s: %d of %d modules placed", r.Design.Name, got, want)
	}
	if vs := r.Verify(); len(vs) > 0 {
		return fmt.Errorf("%s: %d violations, first %v", r.Design.Name, len(vs), vs[0])
	}
	return nil
}

// checkAdjusted fails an adjusted floorplan that is illegal or worse than
// the floorplan it started from. AdjustFloorplan never makes the
// floorplan worse in its LP objective: the chip area under the area
// objective, and the height plus the weighted pairwise center distance
// of connected modules under the area+wire objective.
func checkAdjusted(placed, adjusted *core.Result, cfg core.Config) error {
	if err := checkFloorplan(adjusted); err != nil {
		return fmt.Errorf("adjusted %w", err)
	}
	before, after := placed.ChipArea(), adjusted.ChipArea()
	what := "chip area"
	if cfg.Objective == mipmodel.AreaWire {
		before, after = adjustObjective(placed, cfg.WireWeight), adjustObjective(adjusted, cfg.WireWeight)
		what = "height+wire objective"
	}
	if after > before*(1+relTol) {
		return fmt.Errorf("%s: adjust made the %s worse: %.9g -> %.9g", placed.Design.Name, what, before, after)
	}
	return nil
}

// adjustObjective is the area+wire objective of the fixed-topology LP:
// chip height plus lambda times the connectivity-weighted Manhattan
// distance between envelope centers over all module pairs.
func adjustObjective(r *core.Result, lambda float64) float64 {
	conn := r.Design.Connectivity()
	wire := 0.0
	for i, a := range r.Placements {
		for _, b := range r.Placements[i+1:] {
			if w := conn[a.Index][b.Index]; w > 0 {
				wire += w * (math.Abs(a.Env.CenterX()-b.Env.CenterX()) + math.Abs(a.Env.CenterY()-b.Env.CenterY()))
			}
		}
	}
	return r.Height + lambda*wire
}

// checkRoute fails a routing whose wirelength is not finite or whose
// channel-adjusted chip is smaller than the placed chip.
func checkRoute(placed *core.Result, rr *route.Result) error {
	if rr == nil {
		return errors.New("no routing")
	}
	if math.IsNaN(rr.Wirelength) || math.IsInf(rr.Wirelength, 0) {
		return fmt.Errorf("%s: routed wirelength %v", placed.Design.Name, rr.Wirelength)
	}
	if rr.FinalArea() < placed.ChipArea()*(1-relTol) {
		return fmt.Errorf("%s: routed area %.9g below placed area %.9g", placed.Design.Name, rr.FinalArea(), placed.ChipArea())
	}
	return nil
}
