package engine

import (
	"context"
	"testing"
	"time"

	"sqpr/internal/dsps"
)

func TestFilterKernel(t *testing.T) {
	k := FilterKernel{Pred: func(t Tuple) bool { return t.Value > 0 }}
	if _, ok := k.Process(Tuple{Value: -1}); ok {
		t.Fatal("negative value passed the filter")
	}
	if out, ok := k.Process(Tuple{Value: 3}); !ok || out.Value != 3 {
		t.Fatal("positive value blocked or mutated")
	}
	// Nil predicate passes everything.
	if _, ok := (FilterKernel{}).Process(Tuple{Value: -1}); !ok {
		t.Fatal("nil predicate blocked a tuple")
	}
}

func TestMapKernel(t *testing.T) {
	k := MapKernel{Fn: func(v float64) float64 { return v * 2 }}
	out, ok := k.Process(Tuple{Value: 4})
	if !ok || out.Value != 8 {
		t.Fatalf("map: %+v %v", out, ok)
	}
}

func TestTumblingAggregate(t *testing.T) {
	k := &TumblingAggregate{N: 3}
	for i := 0; i < 2; i++ {
		if _, ok := k.Process(Tuple{Value: float64(i + 1)}); ok {
			t.Fatal("emitted before the window filled")
		}
	}
	out, ok := k.Process(Tuple{Value: 3})
	if !ok || out.Value != 2 { // mean(1,2,3)
		t.Fatalf("aggregate: %+v %v", out, ok)
	}
	// The window resets after emission.
	if _, ok := k.Process(Tuple{Value: 100}); ok {
		t.Fatal("emitted immediately after reset")
	}
}

func TestTumblingAggregateCustomFn(t *testing.T) {
	max := func(vs []float64) float64 {
		m := vs[0]
		for _, v := range vs[1:] {
			if v > m {
				m = v
			}
		}
		return m
	}
	k := &TumblingAggregate{N: 2, Fn: max}
	k.Process(Tuple{Value: 5})
	out, ok := k.Process(Tuple{Value: 9})
	if !ok || out.Value != 9 {
		t.Fatalf("custom aggregate: %+v %v", out, ok)
	}
}

// TestFilterOperatorEndToEnd deploys a unary filter operator and verifies
// that only matching tuples reach the client.
func TestFilterOperatorEndToEnd(t *testing.T) {
	hosts := []dsps.Host{{ID: 0, CPU: 10, OutBW: 100, InBW: 100}}
	sys := dsps.NewSystem(hosts, 100)
	src := sys.AddStream(50, dsps.NoOperator, "src")
	sys.PlaceBase(0, src)
	filt := sys.AddOperator([]dsps.StreamID{src}, 25, 0.5, "filter-even")
	sys.SetRequested(filt.Output, true)

	asg := dsps.NewAssignment()
	asg.AddOp(dsps.Placement{Host: 0, Op: filt.ID})
	asg.SetProvide(filt.Output, 0)
	if err := asg.Validate(sys); err != nil {
		t.Fatal(err)
	}

	eng := New(sys, DefaultConfig())
	eng.RegisterKernel(filt.ID, FilterKernel{Pred: func(t Tuple) bool { return t.Key%2 == 0 }})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := eng.Deploy(ctx, asg); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	got := 0
loop:
	for {
		select {
		case tup := <-eng.Results():
			if tup.Key%2 != 0 {
				t.Fatalf("odd key %d passed the filter", tup.Key)
			}
			got++
			if got >= 5 {
				break loop
			}
		case <-deadline:
			break loop
		}
	}
	eng.Stop()
	if got == 0 {
		t.Fatal("filter delivered nothing")
	}
}
