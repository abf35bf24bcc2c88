package dsps_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sqpr/internal/dsps"
	"sqpr/internal/workload"
)

// capacityFixture is a two-host system carrying some load already — an
// operator on host 0, a flow 0→1 and a provide at host 0 — so every budget
// has prior use, plus one more operator, flow and provide to add on top.
type capacityFixture struct {
	sys     *dsps.System
	a       *dsps.Assignment
	op      dsps.Placement
	flow    dsps.Flow
	provide dsps.StreamID
}

func newCapacityFixture() capacityFixture {
	hosts := []dsps.Host{
		{ID: 0, CPU: 100, Mem: 100, OutBW: 100, InBW: 100},
		{ID: 1, CPU: 100, Mem: 100, OutBW: 100, InBW: 100},
	}
	sys := dsps.NewSystem(hosts, 100)
	bg := sys.AddStream(2, dsps.NoOperator, "bg")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	sys.PlaceBase(0, bg)
	sys.PlaceBase(0, b)
	sys.SetRequested(bg, true)
	sys.SetRequested(b, true)
	bgOp := sys.AddOperator([]dsps.StreamID{bg}, 1, 1.5, "bg-op")
	bgOp.Mem = 1
	op := sys.AddOperator([]dsps.StreamID{b}, 1, 3, "op")
	op.Mem = 2

	a := dsps.NewAssignment()
	a.AddOp(dsps.Placement{Host: 0, Op: bgOp.ID})
	a.AddFlow(dsps.Flow{From: 0, To: 1, Stream: bg})
	a.SetProvide(bg, 0)
	return capacityFixture{
		sys:     sys,
		a:       a,
		op:      dsps.Placement{Host: 0, Op: op.ID},
		flow:    dsps.Flow{From: 0, To: 1, Stream: b},
		provide: b,
	}
}

// TestFitsAgreesWithValidateAtTheBoundary sets each budget of (III.6) so
// that one more piece lands just under it, exactly on it and 2·tol over it,
// and requires the probe (at Validate's tolerance) and Validate to give the
// same verdict: the rulebook is one comparison, not two.
func TestFitsAgreesWithValidateAtTheBoundary(t *testing.T) {
	const tol = dsps.ValidateTol
	levels := []struct {
		name string
		over float64 // use after the piece, minus the budget
		fits bool
	}{
		{"under", -1e-3, true},
		{"at", 0, true},
		{"over", 2 * tol, false},
	}
	type piece int
	const (
		anOp piece = iota
		aFlow
		aProvide
	)
	budgets := []struct {
		name  string
		piece piece
		// set makes the named budget equal to use (after the piece) − over.
		set func(sys *dsps.System, over float64)
	}{
		{"cpu", anOp, func(sys *dsps.System, over float64) { sys.Hosts[0].CPU = 1.5 + 3 - over }},
		{"mem", anOp, func(sys *dsps.System, over float64) { sys.Hosts[0].Mem = 1 + 2 - over }},
		{"link", aFlow, func(sys *dsps.System, over float64) { sys.LinkCap[0][1] = 2 + 5 - over }},
		{"out by flow", aFlow, func(sys *dsps.System, over float64) { sys.Hosts[0].OutBW = 2 + 2 + 5 - over }},
		{"in", aFlow, func(sys *dsps.System, over float64) { sys.Hosts[1].InBW = 2 + 5 - over }},
		{"out by provide", aProvide, func(sys *dsps.System, over float64) { sys.Hosts[0].OutBW = 2 + 2 + 5 - over }},
	}
	for _, b := range budgets {
		for _, lv := range levels {
			fx := newCapacityFixture()
			b.set(fx.sys, lv.over)
			u := fx.a.ComputeUsage(fx.sys)
			var fits bool
			switch b.piece {
			case anOp:
				fits = u.FitsOp(fx.op, tol)
				fx.a.AddOp(fx.op)
			case aFlow:
				fits = u.FitsFlow(fx.flow, tol)
				fx.a.AddFlow(fx.flow)
			case aProvide:
				fits = u.FitsProvide(0, fx.provide, tol)
				fx.a.SetProvide(fx.provide, 0)
			}
			err := fx.a.Validate(fx.sys)
			if fits != lv.fits || (err == nil) != lv.fits {
				t.Errorf("%s %s budget: Fits = %v, Validate = %v, want fits = %v", b.name, lv.name, fits, err, lv.fits)
			}
		}
	}
}

// TestFitsThenAddNeverBreaksValidate fills the property-test systems, with
// memory budgets added, by random causal pieces — each admitted only if
// its Fits* probe at FitTol says so and then charged through Add* — and
// requires every state on the way to validate and the incremental ledger
// to stay exact. Budgets are cut so that operators, flows and provides are
// all refused along the way.
func TestFitsThenAddNeverBreaksValidate(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		sys := workload.BuildSystem(workload.SystemConfig{NumHosts: 6, CPUPerHost: 12, OutBW: 200, InBW: 200, LinkCap: 100})
		cfg := workload.DefaultConfig()
		cfg.NumBaseStreams, cfg.NumQueries, cfg.Arities, cfg.Seed = 24, 24, []int{2, 3}, seed
		workload.Generate(sys, cfg)
		for h := range sys.Hosts {
			sys.Hosts[h].Mem = 2
			sys.Hosts[h].OutBW, sys.Hosts[h].InBW = 60, 50
			for m := range sys.LinkCap[h] {
				sys.LinkCap[h][m] = min(sys.LinkCap[h][m], 25)
			}
		}
		for o := range sys.Operators {
			sys.Operators[o].Mem = 1
		}
		for s := range sys.Streams {
			sys.SetRequested(dsps.StreamID(s), true) // so provides are common enough to run out of room
		}

		rng := rand.New(rand.NewSource(seed))
		a := dsps.NewAssignment()
		u := a.ComputeUsage(sys)
		added := 0
		var refused [3]int // by kind of piece: operator, flow, provide
		for step := 0; step < 6000; step++ {
			h := dsps.HostID(rng.Intn(sys.NumHosts()))
			ok, kind := false, rng.Intn(3)
			switch kind {
			case 0: // an operator whose inputs are all at h
				pl := dsps.Placement{Host: h, Op: dsps.OperatorID(rng.Intn(len(sys.Operators)))}
				causal := !a.HasOp(pl)
				for _, in := range sys.Operators[pl.Op].Inputs {
					causal = causal && a.Available(sys, h, in)
				}
				if !causal {
					continue
				}
				if ok = u.FitsOp(pl, dsps.FitTol); ok {
					a.AddOp(pl)
					u.AddOp(pl)
				}
			case 1: // a flow out of a host that has the stream
				f := dsps.Flow{From: dsps.HostID(rng.Intn(sys.NumHosts())), To: h, Stream: dsps.StreamID(rng.Intn(len(sys.Streams)))}
				if f.From == f.To || a.HasFlow(f) || a.Available(sys, f.To, f.Stream) || !a.Available(sys, f.From, f.Stream) {
					continue
				}
				if ok = u.FitsFlow(f, dsps.FitTol); ok {
					a.AddFlow(f)
					u.AddFlow(f)
				}
			case 2: // a provide where the query is available
				q := dsps.StreamID(rng.Intn(len(sys.Streams)))
				if _, served := a.Provider(q); served || !sys.Streams[q].Requested || !a.Available(sys, h, q) {
					continue
				}
				if ok = u.FitsProvide(h, q, dsps.FitTol); ok {
					a.SetProvide(q, h)
					u.AddProvide(h, q)
				}
			}
			if !ok {
				refused[kind]++
				continue
			}
			added++
			if added%10 == 0 {
				if err := a.Validate(sys); err != nil {
					t.Fatalf("seed %d after %d pieces: %v", seed, added, err)
				}
			}
		}
		if err := a.Validate(sys); err != nil {
			t.Fatalf("seed %d after %d pieces: %v", seed, added, err)
		}
		sameUsage(t, u, a.ComputeUsage(sys))
		if added < 20 || refused[0] == 0 || refused[1] == 0 || refused[2] == 0 {
			t.Fatalf("seed %d: %d pieces added, %v refused by kind; the test would be vacuous", seed, added, refused)
		}
	}
}

// sameUsage compares two ledgers entry by entry, up to the rounding that
// adding in a different order leaves behind.
func sameUsage(t *testing.T, got, want *dsps.Usage) {
	t.Helper()
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }
	vec := func(name string, a, b []float64) {
		if !slices.EqualFunc(a, b, near) {
			t.Fatalf("incremental Usage.%s = %v, recomputed %v", name, a, b)
		}
	}
	vec("CPU", got.CPU, want.CPU)
	vec("Mem", got.Mem, want.Mem)
	vec("Out", got.Out, want.Out)
	vec("In", got.In, want.In)
	for h := range want.Link {
		vec("Link", got.Link[h], want.Link[h])
	}
	vec("Network/CPUSum", []float64{got.Network, got.CPUSum}, []float64{want.Network, want.CPUSum})
}
