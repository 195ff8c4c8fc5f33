// Package par provides the one worker-pool shape the whole system
// schedules on: N independent index-addressed tasks pulled from a
// shared counter by a bounded set of goroutines, with results collected
// by index so every caller stays deterministic under any schedule.
package par

import (
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n) on up to workers workers pulling
// indices from a shared counter: workers−1 new goroutines and the
// caller's own. Callers collect results by index, which keeps output
// ordering — and therefore answers — independent of the schedule. With
// workers <= 1 (or n <= 1) it degenerates to a plain serial loop.
//
// On failure the error with the smallest index among the executed calls
// is returned and remaining indices are abandoned.
func For(workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	// One value holds the pool's shared state, so a fan-out allocates it
	// once rather than each variable its goroutines share.
	st := &struct {
		next     atomic.Int64
		failed   atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		errIdx   int
		firstErr error
	}{errIdx: n}
	work := func() {
		for !st.failed.Load() {
			i := int(st.next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(i); err != nil {
				st.mu.Lock()
				if i < st.errIdx {
					st.errIdx, st.firstErr = i, err
				}
				st.mu.Unlock()
				st.failed.Store(true)
			}
		}
	}
	st.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer st.wg.Done()
			work()
		}()
	}
	work() // the caller is the last worker
	st.wg.Wait()
	return st.firstErr
}
