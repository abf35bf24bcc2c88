package core

import (
	"fmt"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
)

// ImportState replaces the planner state with s (see plan.StatePorter),
// refusing an infeasible allocation. The recovery path applies journaled
// placements through here, so a restart re-admits every query with zero
// MILP solves; the model builder (with its solver) and the closure cache
// are derived machinery and rebuild lazily.
func (p *Planner) ImportState(s plan.State) error {
	// The admitted set may now hold queries the sharer index lacks; the
	// next merge rebuilds it.
	p.closures.sharers = nil
	return p.ImportStateIf(s, func(next *dsps.Assignment) error {
		if err := next.Validate(p.sys); err != nil {
			return fmt.Errorf("imported state infeasible: %w", err)
		}
		return nil
	})
}
