// Package hier implements the hierarchical decomposition the SQPR paper
// sketches in §VII ("first assigning queries to sites and then planning
// queries within sites"): the hosts are partitioned into sites, each new
// query is routed to the site holding most of its base streams (breaking
// ties by spare capacity), and the SQPR optimisation then runs with its
// candidate hosts restricted to that site. This bounds the per-call model
// size by the site size instead of the cluster size — trading some global
// optimality for planning time, which is exactly the scalability issue
// Fig. 6(a) exposes.
package hier

import (
	"context"
	"sort"
	"time"

	"sqpr/internal/core"
	"sqpr/internal/dsps"
	"sqpr/internal/plan"
)

// Planner is one SQPR planner with site-level query routing in front of
// its Submit and Repair; state, bookkeeping and Remove are the embedded
// planner's own (so its Stats count every retried site as a planning
// call). It implements plan.QueryPlanner.
type Planner struct {
	*core.Planner
	sys   *dsps.System
	sites [][]dsps.HostID
	// siteOf maps every host to its site index.
	siteOf []int
}

// New creates a hierarchical planner with the hosts partitioned into
// numSites contiguous, near-equal sites.
func New(sys *dsps.System, cfg core.Config, numSites int) *Planner {
	if numSites < 1 {
		numSites = 1
	}
	n := sys.NumHosts()
	if numSites > n {
		numSites = n
	}
	p := &Planner{
		sys:     sys,
		Planner: core.NewPlanner(sys, cfg),
		siteOf:  make([]int, n),
	}
	base := n / numSites
	extra := n % numSites
	h := 0
	for s := 0; s < numSites; s++ {
		size := base
		if s < extra {
			size++
		}
		var site []dsps.HostID
		for i := 0; i < size; i++ {
			site = append(site, dsps.HostID(h))
			p.siteOf[h] = s
			h++
		}
		p.sites = append(p.sites, site)
	}
	return p
}

// Sites returns the host partition (do not mutate).
func (p *Planner) Sites() [][]dsps.HostID { return p.sites }

// Repair handles churn events with the shared fallback: the queries the
// events invalidated are removed and resubmitted through this planner's
// site-routed Submit, so repairs respect the hierarchical decomposition.
// (The wrapped planner's delta solver is not used: its migration-minimal
// solve spans sites, which would defeat the per-site model-size bound.)
func (p *Planner) Repair(ctx context.Context, events []plan.Event, opts ...plan.SubmitOption) (plan.RepairResult, error) {
	return plan.RepairByResubmit(ctx, p.sys, p, events, opts...)
}

// Submit routes the query to its best site and plans it there; a query
// its site rejects falls back to the remaining sites in descending
// preference order. An explicit plan.WithCandidateHosts option
// bypasses site routing and delegates to the wrapped planner unchanged.
// plan.WithTimeout bounds the whole call including fallback attempts (one
// budget drawn down across the per-site solves); the remaining options are
// forwarded to each attempt.
func (p *Planner) Submit(ctx context.Context, q dsps.StreamID, opts ...plan.SubmitOption) (plan.Result, error) {
	ctx = plan.OrBackground(ctx)
	cfg := plan.Apply(opts)
	if cfg.Hosts != nil {
		return p.Planner.Submit(ctx, q, opts...)
	}
	if err := plan.CheckStream(p.sys, q); err != nil {
		return plan.Result{}, err
	}
	// A per-attempt WithTimeout would multiply by the number of sites
	// tried; treat it as one budget drawn down across all attempts.
	var deadline time.Time
	if cfg.Timeout > 0 {
		deadline = time.Now().Add(cfg.Timeout)
	}
	var siteOpts []plan.SubmitOption
	if cfg.Batch != nil {
		siteOpts = append(siteOpts, plan.WithBatch(cfg.Batch...))
	}
	var last plan.Result
	for _, s := range p.rankSites(q) {
		attempt := append(append([]plan.SubmitOption(nil), siteOpts...),
			plan.WithCandidateHosts(p.sites[s]...))
		if !deadline.IsZero() {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				break // budget exhausted; the last rejection stands
			}
			attempt = append(attempt, plan.WithTimeout(remaining))
		}
		res, err := p.Planner.Submit(ctx, q, attempt...)
		if err != nil {
			return res, err
		}
		last = res
		if res.Admitted || res.AlreadyAdmitted {
			return res, nil
		}
	}
	return last, nil
}

// rankSites orders sites by (base-stream coverage of q, spare CPU).
func (p *Planner) rankSites(q dsps.StreamID) []int {
	coverage := make([]int, len(p.sites))
	for _, s := range p.baseStreamsOf(q) {
		for _, h := range p.sys.BaseHosts(s) {
			coverage[p.siteOf[h]]++
		}
	}
	usage := p.Assignment().ComputeUsage(p.sys)
	spare := make([]float64, len(p.sites))
	for si, site := range p.sites {
		for _, h := range site {
			spare[si] += p.sys.Hosts[h].CPU - usage.CPU[h]
		}
	}
	order := make([]int, len(p.sites))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if coverage[a] != coverage[b] {
			return coverage[a] > coverage[b]
		}
		if spare[a] != spare[b] {
			return spare[a] > spare[b]
		}
		return a < b
	})
	return order
}

// baseStreamsOf expands q to the base streams of its plan space.
func (p *Planner) baseStreamsOf(q dsps.StreamID) []dsps.StreamID {
	seen := make(map[dsps.StreamID]bool)
	var bases []dsps.StreamID
	var stack []dsps.StreamID
	stack = append(stack, q)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[s] {
			continue
		}
		seen[s] = true
		if p.sys.Streams[s].IsBase() {
			bases = append(bases, s)
			continue
		}
		for _, op := range p.sys.ProducersOf(s) {
			stack = append(stack, p.sys.Operators[op].Inputs...)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases
}
