package main

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"highorder/internal/clock"
	"highorder/internal/serve"
)

const (
	// maxRetries bounds the retries of a refused (429/503) request.
	maxRetries = 50
	// retryBackoff is the wait before retrying a refused request.
	retryBackoff = time.Millisecond
	// openLead is how far ahead of now an open loop's first visit is due.
	openLead = 20 * time.Millisecond
)

// accounting counts every HTTP request the load generator's retry loop
// sends, by outcome. A run balances when attempted = succeeded + retried
// + failed, and when these agree with what crossed the wire (wireCounts)
// and with what the servers answered.
type accounting struct {
	attempted, succeeded, retried, failed atomic.Int64
}

// wireCounts counts the round trips that actually crossed the client's
// transport, apart from the retry loop's own accounting, so a request the
// loop lost or counted twice shows as a mismatch.
type wireCounts struct {
	base http.RoundTripper
	// sent is every round trip; ok those answered 2xx, refused those
	// answered 429 or 503, other any other status or a transport error.
	sent, ok, refused, other atomic.Int64
	// okLoad is the 2xx answers to classify and observe requests, which
	// the replicas count too.
	okLoad atomic.Int64
}

func (wc *wireCounts) RoundTrip(req *http.Request) (*http.Response, error) {
	wc.sent.Add(1)
	resp, err := wc.base.RoundTrip(req)
	switch {
	case err != nil:
		wc.other.Add(1)
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		wc.ok.Add(1)
		if p := req.URL.Path; strings.HasSuffix(p, "/classify") || strings.HasSuffix(p, "/observe") {
			wc.okLoad.Add(1)
		}
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		wc.refused.Add(1)
	default:
		wc.other.Add(1)
	}
	return resp, err
}

// checkBalance compares the retry loop's accounting with the wire's and
// with served, the 2xx classify and observe answers the replicas counted.
// Every attempt must have crossed the wire once, every success must be a
// 2xx round trip, every retry or failure a refused or failed one, and
// every 2xx classify or observe one the replicas answered.
func checkBalance(a *accounting, wc *wireCounts, served int64) error {
	att, ok, ret, fail := a.attempted.Load(), a.succeeded.Load(), a.retried.Load(), a.failed.Load()
	var errs []error
	if att != ok+ret+fail {
		errs = append(errs, fmt.Errorf("attempted %d != succeeded %d + retried %d + failed %d", att, ok, ret, fail))
	}
	if sent := wc.sent.Load(); att != sent {
		errs = append(errs, fmt.Errorf("attempted %d, but %d round trips were sent", att, sent))
	}
	if wok := wc.ok.Load(); ok != wok {
		errs = append(errs, fmt.Errorf("succeeded %d, but %d round trips were answered 2xx", ok, wok))
	}
	if bad := wc.refused.Load() + wc.other.Load(); ret+fail != bad {
		errs = append(errs, fmt.Errorf("retried %d + failed %d, but %d round trips were refused or failed", ret, fail, bad))
	}
	if load := wc.okLoad.Load(); load != served {
		errs = append(errs, fmt.Errorf("%d classify and observe requests answered 2xx at the client, %d at the replicas", load, served))
	}
	if len(errs) > 0 {
		return fmt.Errorf("accounting: %w", errors.Join(errs...))
	}
	return nil
}

// session is one client stream: a server session and its cursor in the
// live pool. Its k-th visit classifies pool batch (off+k) mod the pool
// size and, when k+1 is a multiple of observeEvery, observes that batch's
// head (replayVisits), so the visit count alone says what it was sent.
// What it was served is folded as it arrives: the classified batches,
// their misclassified records and a hash over their predictions in order.
// Only one visit of a session runs at a time.
type session struct {
	idx      int
	off      int // the session's first pool batch
	id       string
	client   *serve.Client
	tag      *tagTransport
	visits   int
	observed int

	classified int
	errors     int64
	hash       uint64

	fifo fifo
}

// replayVisits calls classify with the pool batch index of each of the
// first n visits of a session starting at off, in order, and observe with
// the same index after each visit that observes.
func replayVisits(w *workload, pool, off, n int, classify, observe func(bi int) error) error {
	for k := 0; k < n; k++ {
		bi := (off + k) % pool
		if err := classify(bi); err != nil {
			return err
		}
		if (k+1)%w.observeEvery != 0 {
			continue
		}
		if err := observe(bi); err != nil {
			return err
		}
	}
	return nil
}

// sample is one request latency, with its due time as an offset from
// the start of its phase.
type sample struct {
	at, lat time.Duration
}

// phaseStats accumulates one phase's served results.
type phaseStats struct {
	start time.Time
	// timed is set on open-loop phases, which keep every latency; a
	// closed-loop phase only counts.
	timed bool

	records, requests atomic.Int64
	outstanding       atomic.Int64

	mu                sync.Mutex
	classify, observe []sample
	failed            int

	// Written by the pacer only, read once the phase has drained.
	lags      []time.Duration
	backlog   []int32 // outstanding visits at each release
	truncated bool    // the backlog bound stopped the schedule early
	queued    int     // visits released while their session was busy
}

func (ps *phaseStats) record(observe bool, due, done time.Time) {
	ps.requests.Add(1)
	if !ps.timed {
		return
	}
	ps.mu.Lock()
	s := sample{at: due.Sub(ps.start), lat: done.Sub(due)}
	if observe {
		ps.observe = append(ps.observe, s)
	} else {
		ps.classify = append(ps.classify, s)
	}
	ps.mu.Unlock()
}

// runner drives one workload's load against a booted system.
type runner struct {
	w        *workload
	in       *inputs
	clk      clock.Clock
	slp      clock.Sleeper
	pacer    clock.Sleeper // waits out open-loop due times
	sys      *system
	hc       *http.Client // the load's client, counted by wire
	admin    *http.Client // scrapes, uncounted
	tr       *tracing
	acct     accounting
	wire     *wireCounts
	nextReq  atomic.Int64
	sessions []*session
	callers  int
	dir      string
	seqOff   int // next position in the revisit order

	errMu sync.Mutex
	errs  []error
}

// fail records an error that makes the run incorrect.
func (r *runner) fail(err error) {
	r.errMu.Lock()
	r.errs = append(r.errs, err)
	r.errMu.Unlock()
}

func (r *runner) err() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return errors.Join(r.errs...)
}

// newSession returns the idx-th of n unopened sessions. Sessions start
// reading the live pool at evenly spread offsets, so together they cover
// all of it. Traced runs give each session its own tagging transport.
func (r *runner) newSession(idx, n int) *session {
	s := &session{idx: idx, off: idx * len(r.in.pool) / n}
	hc := r.hc
	if r.tr != nil {
		s.tag = &tagTransport{base: r.hc.Transport}
		hc = &http.Client{Transport: s.tag}
	}
	s.client = serve.NewClient(r.sys.base, hc).WithCodec(r.w.codec)
	return s
}

// call runs one request, retrying refusals (429, 503) after a short
// backoff, and accounts for every attempt.
func (r *runner) call(f func() error) error {
	for attempt := 0; ; attempt++ {
		r.acct.attempted.Add(1)
		err := f()
		if err == nil {
			r.acct.succeeded.Add(1)
			return nil
		}
		var he *serve.HTTPError
		if errors.As(err, &he) && he.Retryable() && attempt < maxRetries {
			r.acct.retried.Add(1)
			r.slp.Sleep(retryBackoff)
			continue
		}
		r.acct.failed.Add(1)
		return err
	}
}

// traced runs one client call inside a client.call span, stamping a fresh
// request id on the session's transport, when a tracer is installed.
func (r *runner) traced(s *session, observe bool, f func() error) error {
	tr := r.tr.tracer()
	if tr == nil {
		return r.call(f)
	}
	id := r.nextReq.Add(1)
	s.tag.id.Store(id)
	sp := tr.StartSpan(spanClient)
	sp.SetArg("req", id)
	if observe {
		sp.SetArg("observe", 1)
	}
	err := r.call(f)
	sp.End()
	s.tag.id.Store(0)
	return err
}

// createSessions opens every session, spread over the callers.
func (r *runner) createSessions() error {
	var wg sync.WaitGroup
	for c := 0; c < r.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(r.sessions); i += r.callers {
				s := r.sessions[i]
				var resp serve.CreateSessionResponse
				err := r.call(func() error {
					var err error
					resp, err = s.client.CreateSession(serve.CreateSessionRequest{})
					return err
				})
				if err != nil {
					r.fail(fmt.Errorf("create session %d: %w", i, err))
					return
				}
				s.id = resp.ID
			}
		}(c)
	}
	wg.Wait()
	return r.err()
}

// fnvOffset and fnvPrime are the FNV-1a 64-bit constants.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashPredictions is FNV-1a over the predicted class indices.
func hashPredictions(preds []int) uint64 {
	h := uint64(fnvOffset)
	for _, p := range preds {
		h ^= uint64(p)
		h *= fnvPrime
	}
	return h
}

// foldHash appends one classify's prediction hash to a session's running
// hash, in order.
func foldHash(h, x uint64) uint64 { return (h ^ x) * fnvPrime }

// visit runs one session visit due at due: classify the session's next
// pool batch, and every observeEvery-th visit observe the batch's head.
// Classify latency counts from due; the observe is due when the classify
// it follows completes.
func (r *runner) visit(s *session, due time.Time, ps *phaseStats) error {
	w := r.w
	bi := (s.off + s.visits) % len(r.in.pool)
	b := r.in.pool[bi]
	s.visits++
	var resp serve.ClassifyResponse
	err := r.traced(s, false, func() error {
		var err error
		resp, err = s.client.Classify(s.id, b.vectors, false)
		return err
	})
	if err != nil {
		return fmt.Errorf("session %s classify: %w", s.id, err)
	}
	done := r.clk()
	if len(resp.Predictions) != len(b.vectors) {
		return fmt.Errorf("session %s: %d predictions for %d records", s.id, len(resp.Predictions), len(b.vectors))
	}
	errs := 0
	for i, p := range resp.Predictions {
		if p != b.classes[i] {
			errs++
		}
	}
	s.classified++
	s.errors += int64(errs)
	s.hash = foldHash(s.hash, hashPredictions(resp.Predictions))
	ps.records.Add(int64(len(b.vectors)))
	ps.record(false, due, done)
	if s.visits%w.observeEvery != 0 {
		return nil
	}
	n := w.observeSize
	var oresp serve.ObserveResponse
	err = r.traced(s, true, func() error {
		var err error
		oresp, err = s.client.Observe(s.id, b.vectors[:n], b.classes[:n])
		return err
	})
	if err != nil {
		return fmt.Errorf("session %s observe: %w", s.id, err)
	}
	odone := r.clk()
	s.observed += n
	if oresp.Applied != n || oresp.Observed != s.observed {
		return fmt.Errorf("session %s: observe acknowledged %d applied, %d total; sent %d, %d total",
			s.id, oresp.Applied, oresp.Observed, n, s.observed)
	}
	ps.record(true, done, odone)
	return nil
}

// closedLoop runs one caller per sequence for dur, each visiting its
// sessions in order and sending its next request only when the last
// completed, and returns the classified records/s.
func (r *runner) closedLoop(seqs [][]int, dur time.Duration) float64 {
	ps := &phaseStats{start: r.clk()}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, seq := range seqs {
		wg.Add(1)
		go func(seq []int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				s := r.sessions[seq[i%len(seq)]]
				if err := r.visit(s, r.clk(), ps); err != nil {
					r.fail(err)
					return
				}
			}
		}(seq)
	}
	r.slp.Sleep(dur)
	rate := float64(ps.records.Load()) / r.clk().Sub(ps.start).Seconds()
	stop.Store(true)
	wg.Wait()
	return rate
}

// openLoop offers rps requests/s for dur: session visits are due on a
// fixed schedule, sessions drawn from the revisit order starting at
// seqOff, whatever the replies are doing. It stops releasing early when
// more than maxBacklog visits are outstanding. It returns the phase's
// results and the number of visits released.
func (r *runner) openLoop(rps float64, dur time.Duration, seqOff, maxBacklog int) (*phaseStats, int) {
	perSec := rps / r.w.requestsPerVisit()
	n := max(1, int(perSec*dur.Seconds()))
	interval := time.Duration(float64(time.Second) / perSec)
	ps := &phaseStats{start: r.clk().Add(openLead), timed: true}
	var wg sync.WaitGroup
	spawn := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	released := 0
	ps.lags = pace(r.clk, r.pacer, ps.start, interval, n, func(i int, due time.Time) bool {
		out := ps.outstanding.Load()
		if out > int64(maxBacklog) {
			ps.truncated = true
			return false
		}
		ps.backlog = append(ps.backlog, int32(out))
		s := r.sessions[r.in.visits[(seqOff+i)%len(r.in.visits)]]
		ps.outstanding.Add(1)
		queued := s.fifo.submit(due, spawn, func(due time.Time) {
			if err := r.visit(s, due, ps); err != nil {
				r.fail(err)
				ps.mu.Lock()
				ps.failed++
				ps.mu.Unlock()
			}
			ps.outstanding.Add(-1)
		})
		if queued {
			ps.queued++
		}
		released++
		return true
	})
	wg.Wait()
	return ps, released
}
