package engine

import (
	"sync"

	"sqpr/internal/dsps"
)

// Monitor is the per-host resource monitor of Fig. 3: it aggregates CPU
// work, network transfer and delivery activity, and reports utilisation
// snapshots that a planner can compare against its cost-model estimates
// (the input to adaptive replanning, §IV-B).
type Monitor struct {
	mu        sync.Mutex
	cpuWork   []float64 // accumulated operator cost units per host
	sent      []float64 // accumulated rate-weighted transfers out (network egress only)
	received  []float64
	delivered []float64 // accumulated rate-weighted client deliveries (local, no egress)
	drops     []int64
	samples   int64 // compute records folded into cpuWork
}

// NewMonitor creates a monitor for the system.
func NewMonitor(sys *dsps.System) *Monitor {
	n := sys.NumHosts()
	return &Monitor{
		cpuWork:   make([]float64, n),
		sent:      make([]float64, n),
		received:  make([]float64, n),
		delivered: make([]float64, n),
		drops:     make([]int64, n),
	}
}

func (m *Monitor) recordCompute(h dsps.HostID, cost float64) {
	m.mu.Lock()
	m.cpuWork[h] += cost
	m.samples++
	m.mu.Unlock()
}

func (m *Monitor) recordTransfer(from, to dsps.HostID, rate float64) {
	m.mu.Lock()
	m.sent[from] += rate
	m.received[to] += rate
	m.mu.Unlock()
}

// recordDelivery accounts a client delivery on h. Deliveries are local hand-
// offs, not network egress, so they are kept out of sent: folding them in
// would overcount egress and break the sent/received balance across hosts.
func (m *Monitor) recordDelivery(h dsps.HostID, rate float64) {
	m.mu.Lock()
	m.delivered[h] += rate
	m.mu.Unlock()
}

func (m *Monitor) recordDrop(h dsps.HostID) {
	m.mu.Lock()
	m.drops[h]++
	m.mu.Unlock()
}

// Snapshot is a utilisation report.
type Snapshot struct {
	// CPUWork is accumulated operator cost per host since start.
	CPUWork []float64
	// Sent and Received are accumulated rate-weighted transfer volumes.
	// Sent is strictly network egress (inter-host forwarding, including
	// relays), so summed over hosts it balances against Received up to
	// tuples still in flight or dropped.
	Sent, Received []float64
	// Delivered is the accumulated rate-weighted client delivery volume per
	// host — local hand-offs to result consumers, disjoint from Sent.
	Delivered []float64
	// Drops counts tuples lost to full queues per host.
	Drops []int64
	// ComputeSamples counts the operator invocations folded into CPUWork,
	// so CPUWork/ComputeSamples is the mean per-invocation cost.
	ComputeSamples int64
}

// Snapshot returns a copy of the current counters.
func (m *Monitor) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		CPUWork:        append([]float64(nil), m.cpuWork...),
		Sent:           append([]float64(nil), m.sent...),
		Received:       append([]float64(nil), m.received...),
		Delivered:      append([]float64(nil), m.delivered...),
		Drops:          append([]int64(nil), m.drops...),
		ComputeSamples: m.samples,
	}
	return s
}
