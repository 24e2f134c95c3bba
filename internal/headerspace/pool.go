package headerspace

import (
	"sync"
	"sync/atomic"
)

// PoolRun fans f(i) for i in [0,n) across the given number of workers
// (sequentially when workers <= 1), returning when every call has. Workers
// pull the next index from a shared counter, so uneven items balance
// themselves. It is the one worker pool of the reproduction: ReachAll's
// injection-point sweep, the verifier's recheck passes, batch
// registration and a deployment's switch bring-up all run on it.
func PoolRun(n, workers int, f func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
