package dsps

import "slices"

// Sorted-set tools over slices kept strictly ordered by a comparison: the
// representation of Assignment, and of the sorted lists of plan.State and
// plan.Delta.

// insertAt inserts v at index i of s.
//
//sqpr:hotpath
func insertAt[T any](s []T, i int, v T) []T {
	var zero T
	// Deletions shift in place and keep the capacity, so a planner's trial
	// that adds, rolls back and adds again grows each slice once.
	s = append(s, zero) //sqpr:amortized capacity survives deletes
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// EditSorted returns the ordered set (base ∖ del) ∪ add, an element of add
// replacing the one of base with the same key. Any of the three lists may
// come out of order or repeat keys (the last of a run wins); one that is
// in order costs a linear check, one that is not a sort. The edit itself is
// one merge. The result never aliases del or add, and aliases base only when
// there is nothing to edit.
func EditSorted[T any](base, del, add []T, cmp func(T, T) int) []T {
	base = orderedSet(base, cmp)
	if len(del) == 0 && len(add) == 0 {
		return base
	}
	del, add = orderedSet(del, cmp), orderedSet(add, cmp)
	out := make([]T, 0, len(base)+len(add))
	i, j := 0, 0
	for _, x := range base {
		for ; j < len(add) && cmp(add[j], x) < 0; j++ {
			out = append(out, add[j])
		}
		if j < len(add) && cmp(add[j], x) == 0 {
			continue // replaced by add[j], appended in its turn
		}
		for i < len(del) && cmp(del[i], x) < 0 {
			i++
		}
		if i < len(del) && cmp(del[i], x) == 0 {
			continue
		}
		out = append(out, x)
	}
	return append(out, add[j:]...)
}

// DiffSorted merges two lists strictly ordered by cmp: set holds the
// elements of after that before lacks or holds in another form (a provide
// rebound to a new host), del the elements of before whose key after lacks.
// Both come out in order and alias neither input.
func DiffSorted[T comparable](before, after []T, cmp func(T, T) int) (set, del []T) {
	return appendDiff(nil, nil, before, after, cmp)
}

// appendDiff is DiffSorted appending to set and del.
func appendDiff[T comparable](set, del, before, after []T, cmp func(T, T) int) ([]T, []T) {
	i, j := 0, 0
	for i < len(before) && j < len(after) {
		switch c := cmp(before[i], after[j]); {
		case c < 0:
			del = append(del, before[i])
			i++
		case c > 0:
			set = append(set, after[j])
			j++
		default:
			if before[i] != after[j] {
				set = append(set, after[j])
			}
			i++
			j++
		}
	}
	return append(set, after[j:]...), append(del, before[i:]...)
}

// orderedSet returns s strictly ordered by cmp: s itself when it already
// is, else a sorted copy keeping the last of each run of equal keys (the
// element sequential writes would have left).
func orderedSet[T any](s []T, cmp func(T, T) int) []T {
	if strictlyOrdered(s, cmp) {
		return s
	}
	s = slices.Clone(s)
	slices.SortStableFunc(s, cmp)
	out := s[:0]
	for i, x := range s {
		if i+1 == len(s) || cmp(x, s[i+1]) != 0 {
			out = append(out, x)
		}
	}
	return out
}

// strictlyOrdered reports whether s is sorted by cmp without repeats.
func strictlyOrdered[T any](s []T, cmp func(T, T) int) bool {
	for i := 1; i < len(s); i++ {
		if cmp(s[i-1], s[i]) >= 0 {
			return false
		}
	}
	return true
}
