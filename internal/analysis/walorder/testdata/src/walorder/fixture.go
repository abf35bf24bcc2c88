// Package walorder fixtures: the durability-order protocol in miniature.
package walorder

// Planner mirrors plan.QueryPlanner: mutation contract on the interface
// method, exercised through dynamic dispatch.
type Planner interface {
	//sqpr:mutates
	Submit(id string) error
}

type store struct {
	p     Planner
	dirty int
}

//sqpr:ack-point
func (s *store) ack() {}

//sqpr:journal-point
func (s *store) journal() error { return nil }

//sqpr:mutates
func (s *store) mutate() { s.dirty++ }

// ackThenDone transitively acks: callers must treat it as an ack-point.
func (s *store) ackThenDone() {
	s.ack()
}

// mutateBoth transitively mutates through a plain helper.
func (s *store) mutateBoth() {
	s.mutate()
}

// --- violations ---

func bad(s *store) {
	s.mutate()
	s.ack() // want "acknowledges before journaling"
}

func badIndirect(s *store) {
	s.mutateBoth()
	s.ackThenDone() // want "acknowledges before journaling"
}

func badDynamic(s *store) {
	_ = s.p.Submit("q1")
	s.ack() // want "acknowledges before journaling"
}

// badBranch journals on only one arm; the other reaches the ack dirty.
func badBranch(s *store, ok bool) {
	s.mutate()
	if ok {
		_ = s.journal()
	}
	s.ack() // want "acknowledges before journaling"
}

// badLoop mutates late in the loop body; the next iteration's ack sees
// the dirty state (caught by the second walking pass).
func badLoop(s *store, ids []string) {
	for range ids {
		s.ack() // want "acknowledges before journaling"
		s.mutate()
	}
}

// --- conforming ---

func good(s *store) {
	s.mutate()
	_ = s.journal()
	s.ack()
}

func goodBothArms(s *store, ok bool) {
	s.mutate()
	if ok {
		_ = s.journal()
	} else {
		_ = s.journal()
	}
	s.ack()
}

// goodReject acks without having mutated anything: nothing to journal.
func goodReject(s *store) {
	s.ack()
}

// goodEarlyReturn's dirty path returns before the ack.
func goodEarlyReturn(s *store, ok bool) {
	if !ok {
		s.mutate()
		return
	}
	s.ack()
}

// goodAsync launches the acking loop; ordering inside the goroutine is the
// goroutine's own concern.
func goodAsync(s *store) {
	s.mutate()
	go s.ackLoop()
}

func (s *store) ackLoop() {
	s.ack()
}
