package main

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// poissonArrivals returns the due offsets of a Poisson arrival process
// at rate per second over span, drawn from rng.
func poissonArrivals(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return out
		}
		out = append(out, d)
	}
}

// opTiming is one open-loop operation's timing.
type opTiming struct {
	// Latency runs from the operation's due time to its completion,
	// so time spent queued behind a stall counts against it.
	Latency time.Duration
	// Service runs from the send to completion.
	Service time.Duration
	// Late is how far past the moment it could have been sent (the
	// later of its due time and a connection coming free) the send
	// actually happened: the generator's own lateness.
	Late time.Duration
	Err  error
}

// openLoop issues operation i at start+due[i] on at most conns
// connections, whatever the system's progress: a free connection
// takes the next operation in due order and waits for its due time;
// when every connection is busy, due operations queue. It returns
// when every operation has completed or ctx ends; operations never
// started are reported with ctx's error.
func openLoop(ctx context.Context, start time.Time, due []time.Duration, conns int, do func(i int) error) []opTiming {
	out := make([]opTiming, len(due))
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		i := next
		next++
		return i
	}
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(time.Hour)
			timer.Stop()
			defer timer.Stop()
			for i := take(); i < len(due); i = take() {
				free := time.Now()
				at := start.Add(due[i])
				if wait := time.Until(at); wait > 0 {
					timer.Reset(wait)
					select {
					case <-ctx.Done():
					case <-timer.C:
					}
				}
				if err := ctx.Err(); err != nil {
					out[i].Err = err
					continue
				}
				sent := time.Now()
				err := do(i)
				done := time.Now()
				out[i] = opTiming{
					Latency: done.Sub(at),
					Service: done.Sub(sent),
					Late:    sent.Sub(laterOf(at, free)),
					Err:     err,
				}
			}
		}()
	}
	wg.Wait()
	return out
}

func laterOf(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
