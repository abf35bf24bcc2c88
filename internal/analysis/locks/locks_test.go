package locks_test

import (
	"testing"

	"sqpr/internal/analysis/atest"
	"sqpr/internal/analysis/locks"
)

// TestLockguard checks guarded-field accesses against the held set.
func TestLockguard(t *testing.T) {
	atest.RunModule(t, ".", locks.Analyzer, "./testdata/src/lockguard")
}

// TestLockorder checks acquisition order: hierarchies, cycles and
// self-deadlocks.
func TestLockorder(t *testing.T) {
	atest.RunModule(t, ".", locks.Analyzer, "./testdata/src/lockorder")
}
