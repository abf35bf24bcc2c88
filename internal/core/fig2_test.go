package core

import (
	"context"
	"testing"
	"time"

	"sqpr/internal/dsps"
)

// fig2System reproduces the worked example of Fig. 2: two hosts, two
// queries sharing the sub-query chain o1, o2, o3 that produces stream s3.
// Query 1 requests s4 = o4(s3, extra1); query 2 requests s5 = o5(s3,
// extra2). Each host supports at most three "large" operators and four
// large streams of network traffic.
func fig2System(t *testing.T) (sys *dsps.System, s3, q1, q2 dsps.StreamID) {
	t.Helper()
	hosts := []dsps.Host{
		{ID: 0, CPU: 3, OutBW: 40, InBW: 40}, // h1: 3 ops, 4 streams of rate 10
		{ID: 1, CPU: 3, OutBW: 40, InBW: 40}, // h2
	}
	sys = dsps.NewSystem(hosts, 40)
	s1 := sys.AddStream(10, dsps.NoOperator, "s1")
	s2 := sys.AddStream(10, dsps.NoOperator, "s2")
	sys.PlaceBase(0, s1)
	sys.PlaceBase(0, s2)
	// The shared chain: o1 and o2 feed o3 which outputs s3. We model the
	// chain as a single shared operator o3 with cost 1 consuming s1, s2
	// plus two cheap upstream operators (costs chosen so the chain uses
	// all three operator slots of one host, as in the figure).
	o1 := sys.AddOperator([]dsps.StreamID{s1}, 10, 1, "o1")
	o2 := sys.AddOperator([]dsps.StreamID{s2}, 10, 1, "o2")
	o3 := sys.AddOperator([]dsps.StreamID{o1.Output, o2.Output}, 10, 1, "o3")
	s3 = o3.Output

	// Low-rate extra inputs for the final per-query operators (the figure
	// says their streams "have low data rates and can be ignored").
	e1 := sys.AddStream(0.01, dsps.NoOperator, "e1")
	e2 := sys.AddStream(0.01, dsps.NoOperator, "e2")
	sys.PlaceBase(1, e1)
	sys.PlaceBase(1, e2)
	o4 := sys.AddOperator([]dsps.StreamID{s3, e1}, 10, 1, "o4")
	o5 := sys.AddOperator([]dsps.StreamID{s3, e2}, 10, 1, "o5")
	q1, q2 = o4.Output, o5.Output
	sys.SetRequested(q1, true)
	sys.SetRequested(q2, true)
	return sys, s3, q1, q2
}

// TestFig2BothQueriesAdmittedWithSharedChain verifies that SQPR admits both
// Fig. 2 queries while placing the shared chain exactly once, i.e. the
// reuse plan of Fig. 2(a)/(b) rather than duplicating o1–o3.
func TestFig2BothQueriesAdmittedWithSharedChain(t *testing.T) {
	sys, s3, q1, q2 := fig2System(t)
	cfg := DefaultConfig()
	cfg.SolveTimeout = 2 * time.Second
	p := NewPlanner(sys, cfg)

	r1, err := p.Submit(context.Background(), q1)
	if err != nil || !r1.Admitted {
		t.Fatalf("q1 not admitted: %+v err=%v", r1, err)
	}
	// q1 is the most path-sensitive solve below the size line: a change to
	// the LP's arithmetic or pivot order moves the node that admits it,
	// with the 80-node budget close by. Pin its path.
	if r1.Nodes != 57 || r1.LPIters != 403 {
		t.Fatalf("q1 admitted at node %d after %d LP iterations, want node 57 after 403", r1.Nodes, r1.LPIters)
	}
	r2, err := p.Submit(context.Background(), q2)
	if err != nil || !r2.Admitted {
		t.Fatalf("q2 not admitted: %+v err=%v", r2, err)
	}
	if err := p.Assignment().Validate(sys); err != nil {
		t.Fatalf("plan infeasible: %v", err)
	}
	// The producer of s3 (operator o3) runs exactly once system-wide.
	count := 0
	for _, pl := range p.Assignment().Ops {
		if sys.Operators[pl.Op].Output == s3 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("shared chain placed %d times, want 1 (reuse)", count)
	}
	// Total CPU: 5 operators (o1,o2,o3,o4,o5), never 7 (duplicated chain).
	u := p.Assignment().ComputeUsage(sys)
	if u.TotalCPU() > 5+1e-6 {
		t.Fatalf("total CPU %.2f implies chain duplication", u.TotalCPU())
	}
}

// TestFig2RelayRemovesBottleneck reproduces the §II-C observation: when the
// shared stream s3 lives on a network-saturated host, relaying it through
// the other host keeps the system feasible. We verify that with relaying
// enabled both queries are admitted even under a tight bandwidth budget.
func TestFig2RelayRemovesBottleneck(t *testing.T) {
	build := func() (*dsps.System, dsps.StreamID, dsps.StreamID) {
		hosts := []dsps.Host{
			{ID: 0, CPU: 10, OutBW: 25, InBW: 25},
			{ID: 1, CPU: 10, OutBW: 25, InBW: 25},
			{ID: 2, CPU: 10, OutBW: 25, InBW: 25},
		}
		sys := dsps.NewSystem(hosts, 25)
		a := sys.AddStream(10, dsps.NoOperator, "a")
		b := sys.AddStream(10, dsps.NoOperator, "b")
		sys.PlaceBase(0, a)
		sys.PlaceBase(1, b)
		// Query 1 = a⋈b (result rate 10), query 2 = (a⋈b)⋈c.
		c := sys.AddStream(10, dsps.NoOperator, "c")
		sys.PlaceBase(2, c)
		ab := sys.AddOperator([]dsps.StreamID{a, b}, 10, 1, "ab")
		abc := sys.AddOperator([]dsps.StreamID{ab.Output, c}, 1, 1, "abc")
		sys.SetRequested(ab.Output, true)
		sys.SetRequested(abc.Output, true)
		return sys, ab.Output, abc.Output
	}

	// With relaying (default): both queries admitted.
	sys, qa, qb := build()
	cfg := DefaultConfig()
	cfg.SolveTimeout = 2 * time.Second
	p := NewPlanner(sys, cfg)
	ra, err := p.Submit(context.Background(), qa)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := p.Submit(context.Background(), qb)
	if err != nil {
		t.Fatal(err)
	}
	admittedWithRelay := 0
	if ra.Admitted {
		admittedWithRelay++
	}
	if rb.Admitted {
		admittedWithRelay++
	}
	if admittedWithRelay < 2 {
		t.Fatalf("with relaying only %d/2 admitted", admittedWithRelay)
	}
	if err := p.Assignment().Validate(sys); err != nil {
		t.Fatal(err)
	}
}
