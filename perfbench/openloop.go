package main

import (
	"sync"
	"time"

	"highorder/internal/clock"
)

// pace releases up to n items on a fixed schedule: item i is due at
// start + i*interval. It waits out each due time on slp, reads time from
// clk, and hands the item to release with its due time. It returns how
// late each release ran — the generator's own lag, which a stalled
// process shows and the latency of every request released late absorbs.
// release returning false stops the schedule early.
func pace(clk clock.Clock, slp clock.Sleeper, start time.Time, interval time.Duration, n int,
	release func(i int, due time.Time) bool) []time.Duration {
	lags := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := due.Sub(clk()); d > 0 {
			slp.Sleep(d)
		}
		lags = append(lags, clk().Sub(due))
		if !release(i, due) {
			break
		}
	}
	return lags
}

// fifo serializes one session's open-loop visits. A visit released while
// the session is still busy waits behind the earlier ones, as a user's
// next request waits for the reply to the last; its latency still counts
// from its own due time, so the wait shows.
type fifo struct {
	mu      sync.Mutex
	busy    bool
	pending []time.Time
}

// submit runs visit(due) on a worker started by spawn when the session is
// idle, or queues due behind the running visit and reports true. The
// worker drains the queue in order before the session goes idle.
func (f *fifo) submit(due time.Time, spawn func(func()), visit func(time.Time)) (queued bool) {
	f.mu.Lock()
	if f.busy {
		f.pending = append(f.pending, due)
		f.mu.Unlock()
		return true
	}
	f.busy = true
	f.mu.Unlock()
	spawn(func() {
		for {
			visit(due)
			f.mu.Lock()
			if len(f.pending) == 0 {
				f.busy = false
				f.mu.Unlock()
				return
			}
			due = f.pending[0]
			f.pending = f.pending[1:]
			f.mu.Unlock()
		}
	})
	return false
}
