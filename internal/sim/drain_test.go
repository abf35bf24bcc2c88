package sim

import (
	"context"
	"testing"
	"time"
)

// TestRollingDrainScenario runs the rolling-drain experiment at a tiny
// scale and checks its acceptance invariants: every drained host comes
// back, no admission is lost or dropped along the way, the API answers
// every probe while the roll is underway, and the journal recovers the
// final admitted set.
func TestRollingDrainScenario(t *testing.T) {
	dsc := DefaultDrainScale()
	dsc.Hosts = 8
	dsc.BaseStreams = 30
	dsc.Queries = 20
	dsc.Timeout = 60 * time.Millisecond
	dsc.MaxCandHost = 6
	dsc.DrainHosts = 3

	res, err := RollingDrain(context.Background(), dsc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted != dsc.Queries {
		t.Fatalf("submitted %d over the API, want %d", res.Submitted, dsc.Queries)
	}
	if res.Admitted == 0 {
		t.Fatal("nothing admitted before the roll")
	}
	if res.HostsDrained != dsc.DrainHosts {
		t.Fatalf("rolled %d hosts, want %d", res.HostsDrained, dsc.DrainHosts)
	}
	if res.LostAdmissions != 0 {
		t.Fatalf("lost %d admissions across the roll, want 0", res.LostAdmissions)
	}
	if res.Dropped != 0 {
		t.Fatalf("dropped %d queries across the roll, want 0 (drain is best-effort evacuation)", res.Dropped)
	}
	if res.ProbeTotal < res.HostsDrained {
		t.Fatalf("%d concurrent probes over %d drained hosts; each drained host must be probed", res.ProbeTotal, res.HostsDrained)
	}
	if res.ProbeOK != res.ProbeTotal {
		t.Fatalf("API probes failed during the roll: %d/%d ok", res.ProbeOK, res.ProbeTotal)
	}
	if !res.Durable {
		t.Fatalf("journal recovery holds %d admitted, live daemon ended with a different count", res.RecoveredAdmitted)
	}
	if res.RecoveredAdmitted != res.Admitted {
		t.Fatalf("recovered %d admitted, want %d", res.RecoveredAdmitted, res.Admitted)
	}
}

// TestRollingDrainGracefulCancel checks a cancelled context ends the run
// early with a valid partial result instead of an error.
func TestRollingDrainGracefulCancel(t *testing.T) {
	dsc := DefaultDrainScale()
	dsc.Hosts = 8
	dsc.BaseStreams = 30
	dsc.Queries = 20
	dsc.Timeout = 60 * time.Millisecond
	dsc.MaxCandHost = 6

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RollingDrain(ctx, dsc)
	if err != nil {
		t.Fatalf("cancelled run errored: %v", err)
	}
	if res.Submitted != 0 || res.HostsDrained != 0 {
		t.Fatalf("cancelled run did work: %+v", res)
	}
}
