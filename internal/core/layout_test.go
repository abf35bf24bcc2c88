package core

import (
	"context"
	"testing"

	"sqpr/internal/dsps"
	"sqpr/internal/milp"
)

// layoutSystem has four hosts and two unrelated query families: the chain
// ab = a⋈b, abc = ab⋈c (both requested, so abc's closure holds a requested
// stream that is not the query) and uv = u⋈v.
func layoutSystem(t *testing.T) (sys *dsps.System, ab, abc, uv dsps.StreamID) {
	t.Helper()
	hosts := make([]dsps.Host, 4)
	for i := range hosts {
		hosts[i] = dsps.Host{ID: dsps.HostID(i), CPU: 100, OutBW: 1000, InBW: 1000}
	}
	sys = dsps.NewSystem(hosts, 1000)
	var base [5]dsps.StreamID
	for i, name := range []string{"a", "b", "c", "u", "v"} {
		base[i] = sys.AddStream(5, dsps.NoOperator, name)
		sys.PlaceBase(dsps.HostID(i%2), base[i])
	}
	ab = sys.AddOperator([]dsps.StreamID{base[0], base[1]}, 2, 1, "ab").Output
	abc = sys.AddOperator([]dsps.StreamID{ab, base[2]}, 1, 1, "abc").Output
	uv = sys.AddOperator([]dsps.StreamID{base[3], base[4]}, 1, 1, "uv").Output
	for _, q := range []dsps.StreamID{ab, abc, uv} {
		sys.SetRequested(q, true)
	}
	if err := sys.Validate(); err != nil {
		t.Fatalf("system invalid: %v", err)
	}
	return sys, ab, abc, uv
}

// TestLayoutMatchesCreationOrder builds a Submit model, a Repair chunk
// model and a DisableReduction model and checks the layout against the
// variables build created: build itself panics unless every AddVar returns
// the variable the accessor computed, and the replay below pins the block
// order (per free stream: per host y,[d],p, then the x; z operator-major;
// L last) and that ids outside the model have no variables.
func TestLayoutMatchesCreationOrder(t *testing.T) {
	for _, tc := range []struct {
		name       string
		pinned     bool
		cfg        func(*Config)
		free, with int // free streams, and how many of them have d
	}{
		// abc's closure {a,b,c,ab,abc}; ab and abc are requested.
		{name: "submit", free: 5, with: 2},
		// Pinned: ab is requested but neither admitted nor the chunk's query.
		{name: "repair chunk", pinned: true, free: 5, with: 1},
		{name: "no reduction", cfg: func(c *Config) { c.DisableReduction = true }, free: 8, with: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, _, abc, uv := layoutSystem(t)
			cfg := testConfig()
			cfg.MaxCandidateHosts = 2
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			p := NewPlanner(sys, cfg)
			// An admitted unrelated query puts fixed pieces beside the model.
			if res, err := p.Submit(context.Background(), uv); err != nil || !res.Admitted {
				t.Fatalf("Submit(uv): %+v, %v", res, err)
			}
			b := p.newBuilder([]dsps.StreamID{abc}, tc.pinned)
			m := b.build()

			if len(b.freeStreams) != tc.free {
				t.Fatalf("free streams %v, want %d", b.freeStreams, tc.free)
			}
			next := milp.Var(0)
			is := func(what string, got milp.Var, ok bool) {
				t.Helper()
				if !ok || got != next {
					t.Fatalf("%s = %d (ok=%v), created as variable %d", what, got, ok, next)
				}
				next++
			}
			with := 0
			for _, s := range b.freeStreams {
				_, hasD := b.d(b.hosts[0], s)
				if hasD != b.allowProvide(s) {
					t.Fatalf("stream %d: d present=%v, allowProvide=%v", s, hasD, b.allowProvide(s))
				}
				if hasD {
					with++
				}
				for _, h := range b.hosts {
					v, ok := b.y(h, s)
					is("y", v, ok)
					if hasD {
						v, ok = b.d(h, s)
						is("d", v, ok)
					} else if _, ok := b.d(h, s); ok {
						t.Fatalf("d(%d,%d) exists in a block without provides", h, s)
					}
					v, ok = b.p(h, s)
					is("p", v, ok)
				}
				for _, h := range b.hosts {
					for _, to := range b.hosts {
						v, ok := b.x(h, to, s)
						if h == to {
							if ok {
								t.Fatalf("x(%d,%d,%d) exists: self flow", h, to, s)
							}
							continue
						}
						is("x", v, ok)
					}
				}
			}
			if with != tc.with {
				t.Fatalf("%d free streams have d variables, want %d", with, tc.with)
			}
			for _, o := range b.freeOps {
				for _, h := range b.hosts {
					v, ok := b.z(h, o)
					is("z", v, ok)
				}
			}
			is("L", b.lVar, true)
			if int(next) != m.NumVars() {
				t.Fatalf("layout covers %d variables, model has %d", next, m.NumVars())
			}

			// Ids outside the model have no variables.
			out := 0
			for h := range sys.Hosts {
				for s := range sys.Streams {
					h, s := dsps.HostID(h), dsps.StreamID(s)
					if b.hasHost(h) && b.hasStream(s) {
						continue
					}
					out++
					_, y := b.y(h, s)
					_, d := b.d(h, s)
					_, p := b.p(h, s)
					_, xOut := b.x(h, b.hosts[0], s)
					_, xIn := b.x(b.hosts[0], h, s)
					if y || d || p || xOut || xIn {
						t.Fatalf("(host %d, stream %d) is outside the model but has variables", h, s)
					}
				}
				for o := range sys.Operators {
					h, o := dsps.HostID(h), dsps.OperatorID(o)
					if b.hasHost(h) && b.hasOp(o) {
						continue
					}
					out++
					if _, ok := b.z(h, o); ok {
						t.Fatalf("(host %d, operator %d) is outside the model but has a z variable", h, o)
					}
				}
			}
			if out == 0 && !cfg.DisableReduction {
				t.Fatal("the fixture left nothing outside the model")
			}
		})
	}
}
