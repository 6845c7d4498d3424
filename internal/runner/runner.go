// Package runner fans independent experiment configurations across a
// bounded worker pool. Each simulation engine is single-threaded and
// deterministic for a given seed, so experiments parallelize perfectly:
// one engine per goroutine, no shared mutable state, results collected in
// input order. This is what lets the figure sweeps in cmd/congabench use
// every core without perturbing any individual run's outcome.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map runs fn over every item on up to workers goroutines and returns the
// results in input order. workers <= 0 uses GOMAXPROCS. Every item is
// processed even when some fail; the returned error is the one from the
// lowest-indexed failing item, so the error surfaced does not depend on
// goroutine scheduling.
func Map[C, R any](workers int, items []C, fn func(C) (R, error)) ([]R, error) {
	return MapStream(workers, items, fn, nil)
}

// MapStream is Map with a per-completion callback: emit(i, result, err) is
// invoked once per item, in input order, as soon as the item and all its
// predecessors have finished. Long sweeps can therefore print rows while
// later items are still running, without giving up deterministic output
// order. emit runs on worker goroutines but never concurrently with itself;
// a nil emit makes MapStream identical to Map. Results and the first error
// (lowest index) are still returned when everything has completed.
func MapStream[C, R any](workers int, items []C, fn func(C) (R, error), emit func(i int, r R, err error)) ([]R, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	results := make([]R, len(items))
	errs := make([]error, len(items))
	if workers <= 1 {
		for i, it := range items {
			results[i], errs[i] = fn(it)
			if emit != nil {
				emit(i, results[i], errs[i])
			}
		}
		return results, firstError(errs)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	// done tracks finished items; cursor is the index of the next item to
	// emit. Whichever worker completes the item the cursor is waiting on
	// drains the whole contiguous finished prefix under the mutex, so
	// emissions are serialized and strictly in input order.
	var mu sync.Mutex
	done := make([]bool, len(items))
	cursor := 0
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				results[i], errs[i] = fn(items[i])
				if emit == nil {
					continue
				}
				mu.Lock()
				done[i] = true
				for cursor < len(items) && done[cursor] {
					emit(cursor, results[cursor], errs[cursor])
					cursor++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return results, firstError(errs)
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
