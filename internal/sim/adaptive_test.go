package sim

import (
	"math"
	"testing"

	"sqpr/internal/dsps"
)

func TestAdaptiveExperiment(t *testing.T) {
	sc := tinyScale()
	sc.Queries = 12
	res, err := Adaptive(sc, 2.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.AdmittedBefore == 0 {
		t.Fatal("nothing admitted before the surge")
	}
	if res.Drifted == 0 {
		t.Fatal("no drift detected after a 2x surge on placed operators")
	}
	// Replanning may shed queries that genuinely no longer fit, but must
	// never corrupt the state (Adaptive validates internally) and must
	// keep the unaffected queries.
	if res.AdmittedAfter < res.AdmittedBefore-res.Drifted {
		t.Fatalf("replanning lost unaffected queries: before=%d drifted=%d after=%d",
			res.AdmittedBefore, res.Drifted, res.AdmittedAfter)
	}
	if res.Readmitted > res.Drifted {
		t.Fatalf("readmitted %d > drifted %d", res.Readmitted, res.Drifted)
	}
}

func TestAdaptiveNoSurgeNoDrift(t *testing.T) {
	sc := tinyScale()
	sc.Queries = 8
	res, err := Adaptive(sc, 1.0, 3) // surge factor 1 = no change
	if err != nil {
		t.Fatal(err)
	}
	if res.Drifted != 0 {
		t.Fatalf("drift detected without a surge: %d", res.Drifted)
	}
	if res.AdmittedAfter != res.AdmittedBefore {
		t.Fatal("admissions changed without drift")
	}
}

// driftSystem has one host and the chain ab = a⋈b, abc = ab⋈c.
func driftSystem() (*dsps.System, *dsps.Operator, *dsps.Operator) {
	hosts := []dsps.Host{{ID: 0, CPU: 100, OutBW: 100, InBW: 100}}
	sys := dsps.NewSystem(hosts, 100)
	a := sys.AddStream(10, dsps.NoOperator, "a")
	b := sys.AddStream(20, dsps.NoOperator, "b")
	c := sys.AddStream(5, dsps.NoOperator, "c")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	sys.PlaceBase(0, c)
	ab := sys.AddOperator([]dsps.StreamID{a, b}, 0, 0, "ab")
	abc := sys.AddOperator([]dsps.StreamID{ab.Output, c}, 0, 0, "abc")
	return sys, ab, abc
}

func TestDrift(t *testing.T) {
	for _, tc := range []struct {
		name               string
		modelled, observed float64
		want               float64
	}{
		{"half up", 10, 15, 0.5},
		{"zero cost observed at zero", 0, 0, 0},
		{"zero cost observed at noise level", 0, 1e-12, 0},
		{"zero cost observed at a real cost", 0, 0.5, math.Inf(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := Drift(tc.modelled, tc.observed); got != tc.want {
				t.Fatalf("Drift(%v, %v) = %v, want %v", tc.modelled, tc.observed, got, tc.want)
			}
		})
	}
}

func TestDetectDriftOrdersBySeverity(t *testing.T) {
	sys, ab, abc := driftSystem()
	sys.Operators[ab.ID].Cost = 10
	sys.Operators[abc.ID].Cost = 10
	obs := []Observation{
		{Op: ab.ID, Cost: 12},  // 20% drift
		{Op: abc.ID, Cost: 30}, // 200% drift
	}
	got := DetectDrift(sys, obs, 0.1)
	if len(got) != 2 || got[0].Op != abc.ID {
		t.Fatalf("drift report: %+v", got)
	}
	got = DetectDrift(sys, obs, 0.5)
	if len(got) != 1 || got[0].Op != abc.ID {
		t.Fatalf("threshold filter failed: %+v", got)
	}

	for _, tc := range []struct {
		name string
		obs  []Observation
		want int // number of drifted operators at a 0.2 threshold
	}{
		{"no observations", nil, 0},
		{"within threshold", []Observation{{Op: ab.ID, Cost: 11}}, 0},
		{"beyond threshold", []Observation{{Op: ab.ID, Cost: 20}}, 1},
		{"shrunk beyond threshold", []Observation{{Op: ab.ID, Cost: 1}}, 1},
		{"operator id out of range high", []Observation{{Op: dsps.OperatorID(len(sys.Operators) + 3), Cost: 10}}, 0},
		{"operator id negative", []Observation{{Op: -1, Cost: 10}}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := DetectDrift(sys, tc.obs, 0.2); len(got) != tc.want {
				t.Fatalf("DetectDrift = %+v, want %d operators", got, tc.want)
			}
		})
	}
}

func TestShortageHosts(t *testing.T) {
	sys, _, _ := driftSystem()
	u := &dsps.Usage{CPU: []float64{95}}
	got := ShortageHosts(sys, u, 0.9)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("shortage: %v", got)
	}
	if len(ShortageHosts(sys, &dsps.Usage{CPU: []float64{10}}, 0.9)) != 0 {
		t.Fatal("false shortage")
	}
}
