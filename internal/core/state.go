package core

import (
	"fmt"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
)

// ImportState replaces the planner state with s (see plan.StatePorter),
// refusing an infeasible allocation when the planner validates. The
// recovery path applies journaled placements through here, so a restart
// re-admits every query with zero MILP solves; the model builder, closure
// cache and solver pools are derived machinery and rebuild lazily.
func (p *Planner) ImportState(s plan.State) error {
	return p.ImportStateIf(s, func(next *dsps.Assignment) error {
		if !p.cfg.Validate {
			return nil
		}
		if err := next.Validate(p.sys); err != nil {
			return fmt.Errorf("imported state infeasible: %w", err)
		}
		return nil
	})
}
