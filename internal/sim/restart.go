package sim

import (
	"context"
	"fmt"

	"sqpr/internal/plan"
	"sqpr/internal/wal"
	"sqpr/internal/wal/walfault"
)

// RestartScale parameterises the crash/restart scenario: the workload is
// submitted through a durable admission service journaling to a write-ahead
// log; after CrashAfter queries the process "crashes" (the service is
// abandoned and only the durable file image survives), a fresh planner
// recovers from the log, and the remaining queries resume on the recovered
// service.
type RestartScale struct {
	Scale
	// CrashAfter is the number of queries submitted before the crash.
	CrashAfter int
	// SnapshotEvery is the service's journal compaction interval
	// (records per snapshot; 0 = the service default).
	SnapshotEvery int
}

// DefaultRestartScale crashes mid-workload with frequent snapshots so the
// run exercises both snapshot and tail-record replay.
func DefaultRestartScale() RestartScale {
	return RestartScale{Scale: DefaultScale(), CrashAfter: 75, SnapshotEvery: 16}
}

// RestartResult aggregates one crash/restart run.
type RestartResult struct {
	// Submitted queries before the crash; AdmittedAtCrash of those were
	// admitted (and acknowledged, hence journaled).
	Submitted, AdmittedAtCrash int
	// UsedSnapshot reports whether recovery seeded from a snapshot;
	// ReplayedRecords is the number of journal records applied on top.
	UsedSnapshot    bool
	ReplayedRecords int
	// RecoveredAdmitted is the admitted count after recovery and
	// RecoverySolves the number of planning solves recovery needed
	// (always 0: replay is pure state application).
	RecoveredAdmitted, RecoverySolves int
	// StateMatch reports whether the recovered planner state — admitted
	// set, placements, host availability — is identical to the pre-crash
	// planner's.
	StateMatch bool
	// ResumeSubmitted queries were submitted after recovery;
	// FinalAdmitted is the admitted count at the end.
	ResumeSubmitted, FinalAdmitted int
}

// Restart runs the crash/restart scenario on the SQPR planner. Cancelling
// ctx stops the run gracefully at the next query boundary; the partial
// result is still valid.
func Restart(ctx context.Context, rs RestartScale) (RestartResult, error) {
	var res RestartResult
	env := BuildEnv(rs.Scale)
	fs := walfault.New()
	scfg := plan.ServiceConfig{SnapshotEvery: rs.SnapshotEvery}

	p1 := env.NewPlanner(rs.Scale)
	svc, _, err := plan.OpenService(p1, scfg, fs, wal.Options{})
	if err != nil {
		return res, fmt.Errorf("sim: opening durable service: %w", err)
	}
	crashAt := rs.CrashAfter
	if crashAt > len(env.Queries) {
		crashAt = len(env.Queries)
	}
	for _, q := range env.Queries[:crashAt] {
		if ctx.Err() != nil {
			break
		}
		if _, err := svc.Submit(ctx, q); err != nil {
			if ctx.Err() != nil {
				break // cancellation aborted the solve: graceful stop
			}
			svc.Close()
			return res, fmt.Errorf("sim: restart submit %d: %w", q, err)
		}
		res.Submitted++
	}
	res.AdmittedAtCrash = svc.AdmittedCount()
	want := p1.ExportState()

	// Crash: only what the log made durable survives. The old service is
	// closed afterwards purely to release its goroutine — the recovered
	// image was already taken.
	img := fs.Reopen()
	svc.Close()
	if ctx.Err() != nil {
		return res, nil
	}

	env2 := BuildEnv(rs.Scale)
	p2 := env2.NewPlanner(rs.Scale)
	svc2, recInfo, err := plan.OpenService(p2, scfg, img, wal.Options{})
	if err != nil {
		return res, fmt.Errorf("sim: recovering durable service: %w", err)
	}
	defer svc2.Close()
	res.UsedSnapshot = recInfo.UsedSnapshot
	res.ReplayedRecords = recInfo.Records
	res.RecoveredAdmitted = recInfo.Admitted
	res.RecoverySolves = p2.Stats().Submissions
	res.StateMatch = p2.ExportState().Equal(want)

	for _, q := range env2.Queries[crashAt:] {
		if ctx.Err() != nil {
			break
		}
		if _, err := svc2.Submit(ctx, q); err != nil {
			if ctx.Err() != nil {
				break // cancellation aborted the solve: graceful stop
			}
			return res, fmt.Errorf("sim: resume submit %d: %w", q, err)
		}
		res.ResumeSubmitted++
	}
	res.FinalAdmitted = svc2.AdmittedCount()
	return res, nil
}
