package plan

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"sqpr/internal/invariant"
	"sqpr/internal/wal"
)

// ErrWALFailed reports that the admission journal could not be written.
// The service wedges on the first journal failure: the in-memory planner
// may already hold the unjournaled outcome, so acknowledging it — or any
// later state change — would let memory silently diverge from the durable
// log. Reads keep working; every state-changing request fails fast with an
// error wrapping this sentinel until the operator restarts the service
// (which recovers from the log's last good state).
var ErrWALFailed = errors.New("admission journal failed")

// walRecord is the journal record envelope: one deterministic state delta
// per applied request. Kind is informational (audit/debug); replay
// needs only the delta.
type walRecord struct {
	Kind  string `json:"kind"`
	Delta Delta  `json:"delta"`
}

// RecoveredState reports what OpenService rebuilt from the journal.
type RecoveredState struct {
	// UsedSnapshot is true when a snapshot seeded the replay (rather than
	// the fresh-planner baseline).
	UsedSnapshot bool
	// Records is the number of journal records replayed.
	Records int
	// Admitted is the admitted query count after recovery.
	Admitted int
	// TailTruncated is the number of torn tail bytes the log cut during
	// recovery (see wal.Recovered).
	TailTruncated int
}

// OpenService opens (or creates) the write-ahead log stored in fs,
// replays it into planner p, and returns a running admission service that
// journals every state-changing outcome before acknowledging it.
//
// p must be a freshly constructed planner over a system identical to the
// one the log was written against: recovery replays recorded deltas on top
// of the fresh planner's exported baseline (or the latest snapshot) and
// imports the result wholesale, so the restarted planner reaches the exact
// pre-crash state — admitted set, placements and host availability — with
// zero planning solves. p must implement StatePorter. A p that is also a
// DeltaRecorder is journaled from what each request touched and exported
// only for snapshots; any other is exported and diffed after every request.
//
// The service owns the log: Close flushes and closes it.
func OpenService(p QueryPlanner, cfg ServiceConfig, fs wal.FS, wopts wal.Options) (*Service, RecoveredState, error) {
	var rs RecoveredState
	porter, ok := p.(StatePorter)
	if !ok {
		return nil, rs, fmt.Errorf("plan: %T does not implement StatePorter; a durable service cannot journal it", p)
	}
	log, recv, err := wal.Open(fs, wopts)
	if err != nil {
		return nil, rs, fmt.Errorf("plan: opening admission journal: %w", err)
	}
	rs.TailTruncated = recv.TailTruncated

	st := porter.ExportState()
	if recv.Snapshot != nil {
		if err := json.Unmarshal(recv.Snapshot, &st); err != nil {
			return nil, rs, fmt.Errorf("plan: decoding journal snapshot %d: %w", recv.SnapshotSeq, err)
		}
		rs.UsedSnapshot = true
	}
	for _, e := range recv.Entries {
		var r walRecord
		if err := json.Unmarshal(e.Data, &r); err != nil {
			return nil, rs, fmt.Errorf("plan: decoding journal record %d: %w", e.Seq, err)
		}
		if err := st.Apply(r.Delta); err != nil {
			return nil, rs, fmt.Errorf("plan: replaying journal record %d: %w", e.Seq, err)
		}
		rs.Records++
	}
	if rs.UsedSnapshot || rs.Records > 0 {
		if err := porter.ImportState(st); err != nil {
			return nil, rs, fmt.Errorf("plan: importing recovered state: %w", err)
		}
	}
	rs.Admitted = p.AdmittedCount()

	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 256
	}
	s := newService(p, cfg)
	s.pmu.Lock()
	s.walLog = log
	s.source = newJournalSource(p, porter)
	s.pmu.Unlock()
	go s.dispatch()
	return s, rs, nil
}

// journal writes the state delta of the request the dispatcher just
// applied, before it is acknowledged. The delta is what the request
// changed, so rejected submissions and failed calls produce an empty delta
// and cost nothing. Returns the error the request must be answered with
// (nil when clean). Callers hold pmu.
//
//sqpr:locked pmu
//sqpr:journal-point
func (s *Service) journal(kind TraceKind) error {
	if s.walLog == nil {
		return nil
	}
	if err := s.Wedged(); err != nil {
		return err
	}
	d := s.source.TakeDelta()
	if d.IsEmpty() {
		return nil
	}
	data, err := json.Marshal(walRecord{Kind: kind.String(), Delta: d})
	if err != nil {
		return s.setWALErr(fmt.Errorf("plan: encoding journal record: %w: %w", err, ErrWALFailed))
	}
	if _, err := s.walLog.Append(data); err != nil {
		return s.setWALErr(fmt.Errorf("plan: appending journal record: %w: %w", err, ErrWALFailed))
	}
	s.sinceSnap++
	if s.sinceSnap >= s.cfg.SnapshotEvery {
		snap, err := json.Marshal(s.source.State())
		if err != nil {
			return s.setWALErr(fmt.Errorf("plan: encoding journal snapshot: %w: %w", err, ErrWALFailed))
		}
		if err := s.walLog.WriteSnapshot(snap); err != nil {
			return s.setWALErr(fmt.Errorf("plan: writing journal snapshot: %w: %w", err, ErrWALFailed))
		}
		s.sinceSnap = 0
	}
	if invariant.Enabled && s.walLog.SnapshotSeq() > s.walLog.LastSeq() {
		invariant.Failf("service: journal snapshot seq %d ahead of log seq %d",
			s.walLog.SnapshotSeq(), s.walLog.LastSeq())
	}
	return nil
}

// journalSource yields what the journal writes: each request's delta and,
// every SnapshotEvery records, the whole state.
type journalSource interface {
	TakeDelta() Delta
	State() State
}

// newJournalSource picks p's source: its own change record when it is a
// DeltaRecorder (checked against the export diff under sqprdebug), else
// export and diff. The recording starts here, at the recovered state.
func newJournalSource(p QueryPlanner, porter StatePorter) journalSource {
	rec, ok := p.(DeltaRecorder)
	if !ok {
		return &diffSource{porter: porter, last: porter.ExportState()}
	}
	rec.TakeDelta()
	src := recordedSource{DeltaRecorder: rec, porter: porter}
	if invariant.Enabled {
		return &checkedSource{recordedSource: src, last: porter.ExportState()}
	}
	return src
}

// recordedSource journals a DeltaRecorder: a delta costs what the request
// touched, and the state is exported only for a snapshot.
type recordedSource struct {
	DeltaRecorder
	porter StatePorter
}

func (r recordedSource) State() State { return r.porter.ExportState() }

// diffSource journals a StatePorter that records nothing: it exports the
// whole state after every request and diffs it with the previous export.
type diffSource struct {
	porter StatePorter
	last   State
}

func (d *diffSource) TakeDelta() Delta {
	cur := d.porter.ExportState()
	delta := Diff(d.last, cur)
	d.last = cur
	return delta
}

func (d *diffSource) State() State { return d.last }

// checkedSource is a DeltaRecorder's source in checked builds: it also
// exports after every request and asserts that the recorded delta encodes
// to the bytes of the export diff.
type checkedSource struct {
	recordedSource
	last State
}

func (c *checkedSource) TakeDelta() Delta {
	d := c.recordedSource.TakeDelta()
	cur := c.porter.ExportState()
	got, err := json.Marshal(d)
	want, err2 := json.Marshal(Diff(c.last, cur))
	if err != nil || err2 != nil || !bytes.Equal(got, want) {
		invariant.Failf("service: the recorded delta %s differs from the export diff %s", got, want)
	}
	c.last = cur
	return d
}

func (c *checkedSource) State() State { return c.last }

// setWALErr records the sticky journal error that Wedged reads. Callers
// hold pmu.
//
//sqpr:locked pmu
func (s *Service) setWALErr(err error) error {
	s.wedge.Store(&err)
	return err
}

// Wedged reports whether the service is wedged on a journal failure: nil
// for a healthy (or non-durable) service, otherwise the sticky error
// wrapping ErrWALFailed that every state-changing request is answered
// with. Readiness probes use this: a wedged service still serves reads but
// cannot accept work until restarted. Wedged is lock-free — it never queues
// behind the dispatcher, so probes stay responsive through long solves.
func (s *Service) Wedged() error {
	if p := s.wedge.Load(); p != nil {
		return *p
	}
	return nil
}

// WALStats returns the journal's telemetry, or a zero Stats when the
// service is not durable.
func (s *Service) WALStats() wal.Stats {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.walLog == nil {
		return wal.Stats{}
	}
	return s.walLog.Stats()
}

// SyncWAL flushes any unsynced journal records to stable storage (used by
// graceful shutdown under relaxed fsync policies). A no-op for
// non-durable services.
func (s *Service) SyncWAL() error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.walLog == nil {
		return nil
	}
	if err := s.Wedged(); err != nil {
		return err
	}
	return s.walLog.Sync()
}
