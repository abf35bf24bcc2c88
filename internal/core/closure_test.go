package core

import (
	"context"
	"testing"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/workload"
)

// chainSystem builds base streams a,b,c,d and composites ab, abc (with the
// alternative producer a⋈bc missing — single join order) to test closures.
func chainSystem() (*dsps.System, dsps.StreamID, dsps.StreamID) {
	hosts := []dsps.Host{{ID: 0, CPU: 100, OutBW: 1000, InBW: 1000}}
	sys := dsps.NewSystem(hosts, 1000)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	c := sys.AddStream(5, dsps.NoOperator, "c")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	sys.PlaceBase(0, c)
	ab := sys.AddOperator([]dsps.StreamID{a, b}, 2, 1, "ab")
	abc := sys.AddOperator([]dsps.StreamID{ab.Output, c}, 1, 1, "abc")
	sys.SetRequested(ab.Output, true)
	sys.SetRequested(abc.Output, true)
	return sys, ab.Output, abc.Output
}

func TestClosureContainsAllPlanStreams(t *testing.T) {
	sys, _, abc := chainSystem()
	cc := newClosureCache(sys)
	got := cc.streamsOf(abc)
	// abc's closure: {abc, ab, a, b, c} = 5 streams.
	if len(got) != 5 {
		t.Fatalf("closure size %d: %v", len(got), got)
	}
}

func TestClosureMemoised(t *testing.T) {
	sys, ab, _ := chainSystem()
	cc := newClosureCache(sys)
	first := cc.streamsOf(ab)
	second := cc.streamsOf(ab)
	if &first[0] != &second[0] {
		t.Fatal("closure not memoised (different slices)")
	}
}

func TestClosureWithAlternativeProducers(t *testing.T) {
	// All join orders of a 3-way query appear in the closure.
	sys := workload.BuildSystem(workload.SystemConfig{NumHosts: 2, CPUPerHost: 10, OutBW: 100, InBW: 100, LinkCap: 50})
	cfg := workload.DefaultConfig()
	cfg.NumBaseStreams = 3
	cfg.NumQueries = 1
	cfg.Arities = []int{3}
	w := workload.Generate(sys, cfg)
	cc := newClosureCache(sys)
	got := cc.streamsOf(w.Queries[0])
	// 3 bases + 3 pair composites + the result = 7 streams.
	if len(got) != 7 {
		t.Fatalf("closure size %d: %v", len(got), got)
	}
}

func TestFreeSetMergesSharingQueries(t *testing.T) {
	sys, ab, abc := chainSystem()
	cfg := DefaultConfig()
	cfg.SolveTimeout = time.Second
	p := NewPlanner(sys, cfg)
	if _, err := p.Submit(context.Background(), ab); err != nil {
		t.Fatal(err)
	}
	// Planning abc must pull the admitted sharing query ab into the free
	// set (they share streams a, b and ab).
	b := p.newBuilder([]dsps.StreamID{abc}, false)
	if !b.hasStream(ab) {
		t.Fatal("sharing query ab not merged into the free set")
	}
}

func TestFreeSetRespectsCap(t *testing.T) {
	sys, ab, abc := chainSystem()
	cfg := DefaultConfig()
	cfg.SolveTimeout = time.Second
	cfg.MaxFreeStreams = 5 // exactly the closure of abc; no room to merge
	p := NewPlanner(sys, cfg)
	if _, err := p.Submit(context.Background(), ab); err != nil {
		t.Fatal(err)
	}
	b := p.newBuilder([]dsps.StreamID{abc}, false)
	if len(b.freeStreams) > 5 {
		t.Fatalf("free set %d exceeds cap 5", len(b.freeStreams))
	}
}

func TestHostsTouched(t *testing.T) {
	sys, ab, _ := chainSystem()
	cfg := DefaultConfig()
	cfg.SolveTimeout = time.Second
	p := NewPlanner(sys, cfg)
	if _, err := p.Submit(context.Background(), ab); err != nil {
		t.Fatal(err)
	}
	b := p.builder()
	b.clearTouched()
	if !b.touchFree(0, 0) || b.touched != 0 {
		t.Fatalf("%d hosts touched by the empty set", b.touched)
	}
	b.addFree([]dsps.StreamID{ab})
	if b.touchFree(0, 0) || b.touched != 0 {
		t.Fatalf("a placed stream fits a limit of no hosts, or a refusal kept %d hosts touched", b.touched)
	}
	if !b.touchFree(0, 8) || b.touched < 1 {
		t.Fatalf("%d hosts touched, want >=1 after placement", b.touched)
	}
}
