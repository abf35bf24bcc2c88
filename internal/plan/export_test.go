package plan

// QueueLen reports how many requests wait in the service queue, so a test
// can park requests behind a blocked planner in a known order.
func (s *Service) QueueLen() int { return len(s.reqs) }
