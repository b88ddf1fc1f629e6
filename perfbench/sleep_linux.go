package main

import (
	"errors"
	"syscall"
	"time"

	"highorder/internal/clock"
)

// preciseSleeper sleeps in the nanosleep system call. The runtime's own
// timers wake an otherwise idle process at millisecond granularity, which
// would make a sub-millisecond open-loop schedule run up to a millisecond
// late; the kernel's timer does not.
func preciseSleeper() clock.Sleeper {
	return func(d time.Duration) {
		ts := syscall.NsecToTimespec(int64(d))
		for {
			err := syscall.Nanosleep(&ts, &ts)
			if !errors.Is(err, syscall.EINTR) {
				return
			}
		}
	}
}
