// Package firstcall_test makes a process's first flags.NewRegistry call.
// It lives apart because its test binary must import nothing that builds
// the standard catalog at initialization, as jvmsim and hierarchy do.
package firstcall_test

import (
	"sync"
	"testing"

	"repro/internal/flags"
)

// TestNewRegistryConcurrentFirstCall races eight goroutines into the
// first NewRegistry call of the process: they must all get the one
// standard instance. Later -count iterations find it built and must get
// the same instance again.
func TestNewRegistryConcurrentFirstCall(t *testing.T) {
	const n = 8
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		got   [n]*flags.Registry
	)
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[i] = flags.NewRegistry()
		}()
	}
	start.Done()
	done.Wait()
	for i, r := range got {
		if r == nil || r != got[0] {
			t.Fatalf("goroutine %d got registry %p, goroutine 0 got %p", i, r, got[0])
		}
	}
	if r := flags.NewRegistry(); r != got[0] {
		t.Fatalf("a later call returned %p, the first calls %p", r, got[0])
	}
	if got[0].Len() < 600 {
		t.Fatalf("standard catalog has %d flags", got[0].Len())
	}
}
