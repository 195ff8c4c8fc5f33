package par

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestForRunsOneWorkerOnCaller: a fan-out of two workers over two tasks
// that wait for each other starts one goroutine, not two; the caller
// runs the other worker.
func TestForRunsOneWorkerOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	var arrived, counted sync.WaitGroup
	arrived.Add(2)
	counted.Add(2)
	rise := make([]int, 2)
	err := For(2, 2, func(i int) error {
		arrived.Done()
		arrived.Wait() // both tasks are running: two workers
		rise[i] = runtime.NumGoroutine() - before
		counted.Done()
		counted.Wait() // neither worker exits before both have counted
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rise {
		if r != 1 {
			t.Errorf("task %d: goroutines rose by %d, want 1", i, r)
		}
	}
}

// TestForSmallestIndexError: of the calls that fail, For returns the
// error of the smallest index, at any worker count.
func TestForSmallestIndexError(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		err := For(workers, 100, func(i int) error {
			if i%10 == 7 {
				return fmt.Errorf("task %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 7" {
			t.Errorf("workers %d: err = %v, want task 7", workers, err)
		}
	}
}

// TestForRunsEveryIndexOnce: every index runs exactly once, serial or
// fanned out.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8} {
		runs := make([]int, 50)
		var mu sync.Mutex
		if err := For(workers, len(runs), func(i int) error {
			mu.Lock()
			runs[i]++
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, n := range runs {
			if n != 1 {
				t.Errorf("workers %d: index %d ran %d times", workers, i, n)
			}
		}
	}
}
