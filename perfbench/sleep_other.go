//go:build !linux

package main

import "highorder/internal/clock"

// preciseSleeper is the runtime's sleep where nanosleep is not used.
func preciseSleeper() clock.Sleeper { return clock.Sleeper(nil).OrReal() }
