package main

import (
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"highorder/internal/clock"
	"highorder/internal/obs"
	"highorder/internal/serve"
)

const (
	// A run builds and boots the system at least minSetups times, and
	// more until setupBudget is spent, up to maxSetups; setup_s is the
	// median, and the last system built serves the load.
	minSetups   = 5
	maxSetups   = 15
	setupBudget = 3 * time.Second
	// warmDur is the closed-loop warm-up before anything is timed.
	warmDur = 500 * time.Millisecond
	// lagLimit is the generator lag beyond which an open-loop phase is not
	// trusted: the fixed-rate phase makes the run invalid, a ladder probe
	// fails.
	lagLimit = 10 * time.Millisecond
	// predictorProbeRecords caps the records the predictor probe replays.
	predictorProbeRecords = 1 << 21
	// storeProbeCalls caps the store probe's appends.
	storeProbeCalls = 1000
)

// config is one invocation's arguments.
type config struct {
	workload *workload
	seed     int64
	seconds  int
	trace    bool
	dir      string // scratch directory inside the checkout, removed at exit
	traceOut string // where a traced run writes its Chrome-trace JSON
}

// metric is one reported metric: its value, and the repeats within the
// run it is the median of.
type metric struct {
	name, unit string
	value      float64
	repeats    []float64
	pcts       []percentile
}

// result is one run's outcome.
type result struct {
	metrics   []metric
	attempted int64
	failed    int64
	notes     []string
	errs      []error
}

func (res *result) add(name, unit string, value float64, repeats []float64, pcts ...percentile) {
	res.metrics = append(res.metrics, metric{name: name, unit: unit, value: value, repeats: repeats, pcts: pcts})
}

func (res *result) note(format string, args ...any) {
	res.notes = append(res.notes, fmt.Sprintf(format, args...))
}

// heapSampler tracks the peak of the live heap while it runs. The live
// heap is what the last GC marked reachable, so the peak does not depend
// on how much garbage happened to be pending when a sample was taken.
type heapSampler struct {
	peak atomic.Uint64
	stop atomic.Bool
	done chan struct{}
	once sync.Once
}

// liveHeap reads the heap the last GC found live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler(slp clock.Sleeper, every time.Duration) *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.peak.Store(liveHeap())
	go func() {
		defer close(h.done)
		for !h.stop.Load() {
			v := liveHeap()
			for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
			}
			slp.Sleep(every)
		}
	}()
	return h
}

// cut returns the peak since the last cut (or the start), collects the
// garbage, and starts the next window at the live heap that is left.
func (h *heapSampler) cut() uint64 {
	peak := h.peak.Load()
	runtime.GC()
	return max(peak, h.peak.Swap(liveHeap()))
}

// finish stops the sampler. Calling it again does nothing.
func (h *heapSampler) finish() {
	h.once.Do(func() {
		h.stop.Store(true)
		<-h.done
	})
}

func median(xs []float64) float64 { return summarize(xs).Median }

func latenciesMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.lat) / float64(time.Millisecond)
	}
	return out
}

func lagsMs(lags []time.Duration) []float64 {
	out := make([]float64, len(lags))
	for i, d := range lags {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// execute runs one workload: generate inputs, set up (repeatedly), drive
// the load, verify against the offline twin, and assemble the metrics.
func execute(cfg config, log io.Writer) (*result, error) {
	w := cfg.workload
	clk := clock.Clock(nil).OrWall()
	slp := clock.Sleeper(nil).OrReal()
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	res := &result{}
	S := time.Duration(cfg.seconds) * time.Second

	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.dir) //homlint:allow errdrop -- scratch directory; a failed removal does not change the result

	t := clk()
	in, err := w.generate(cfg.seed)
	if err != nil {
		return nil, err
	}
	// The generated inputs are the benchmark's own and stay live all run;
	// peak_heap_mb is the live heap above them.
	runtime.GC()
	inputsHeap := liveHeap()
	fmt.Fprintf(log, "inputs: %d history records, %d live batches of %d, generated in %.2fs\n",
		in.history.Len(), len(in.pool), w.batch, clk.Since(t).Seconds())

	var tr *tracing
	wrap := noWrap
	if cfg.trace {
		tr = &tracing{}
		wrap = tr.wrap
	}
	var sys *system
	var stages []stageTimes
	var spent time.Duration
	for k := 0; k < maxSetups && (k < minSetups || spent < setupBudget); k++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", k-1, err)
			}
		}
		var st stageTimes
		sys, st, err = setup(clk, w, in, cfg.dir, fmt.Sprintf("setup%d", k), wrap)
		if err != nil {
			return nil, err
		}
		stages = append(stages, st)
		spent += st.total()
		fmt.Fprintf(log, "set-up %d: build %.3fs, dataio round trip %.3fs, compile %.3fs, boot %.3fs\n",
			k, st.build.Seconds(), st.roundtrip.Seconds(), st.compile.Seconds(), st.boot.Seconds())
	}
	defer func() {
		if err := sys.close(); err != nil {
			fmt.Fprintf(log, "tear down: %v\n", err)
		}
	}()

	transport := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	defer transport.CloseIdleConnections()
	wire := &wireCounts{base: transport}
	r := &runner{w: w, in: in, clk: clk, slp: slp, pacer: preciseSleeper(), sys: sys,
		hc: &http.Client{Transport: wire}, admin: &http.Client{Transport: transport}, wire: wire,
		tr: tr, callers: nproc, dir: cfg.dir}
	total := w.sessions + nproc
	for i := 0; i < total; i++ {
		r.sessions = append(r.sessions, r.newSession(i, total))
	}
	t = clk()
	if err := r.createSessions(); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "sessions: %d created in %.2fs\n", len(r.sessions), clk.Since(t).Seconds())

	// Each closed-loop caller owns dedicated sessions; on the fleet it owns
	// the population's sessions congruent to it, revisited in Zipf order,
	// so no session is visited by two callers at once.
	warm := make([][]int, nproc)
	closed := make([][]int, nproc)
	for c := range warm {
		warm[c] = []int{w.sessions + c}
		closed[c] = warm[c]
	}
	if w.fleet {
		for c := range closed {
			closed[c] = nil
		}
		for _, s := range in.visits {
			closed[s%nproc] = append(closed[s%nproc], s)
		}
	}
	r.closedLoop(warm, warmDur)
	// Collect the set-up's garbage now rather than inside a timed phase.
	runtime.GC()

	var open []*phaseStats
	var traced *obs.Tracer
	if cfg.trace {
		var before, after scrape
		if open, traced, before, after, err = r.measureTraced(res, S, closed); err != nil {
			return nil, err
		}
		if err := r.layerMetrics(res, traced, before, after, open[0], stages); err != nil {
			return nil, err
		}
	} else {
		open = r.measure(res, S, closed, inputsHeap)
	}

	twin, verr := r.verify(sys.built, nproc)
	if verr != nil {
		res.errs = append(res.errs, verr)
	}
	if err := r.err(); err != nil {
		res.errs = append(res.errs, err)
	}
	var served, records int64
	for _, s := range r.sessions {
		served += s.errors
		records += int64(s.classified * w.batch)
	}
	if served != twin.errors || records != twin.records {
		res.errs = append(res.errs, fmt.Errorf("oracle: served %d errors in %d records, twin %d in %d", served, records, twin.errors, twin.records))
	}
	final, err := r.scrape()
	if err != nil {
		return nil, err
	}
	if err := checkBalance(&r.acct, wire, final.servedLoad()); err != nil {
		res.errs = append(res.errs, err)
	}
	var lags []float64
	var released, queued int
	for _, ps := range open {
		released += len(ps.backlog)
		queued += ps.queued
		lags = append(lags, lagsMs(ps.lags)...)
		if ps.failed > 0 || ps.truncated {
			res.errs = append(res.errs, fmt.Errorf("fixed-rate phase: %d visits failed, backlog bound hit %v", ps.failed, ps.truncated))
		}
	}
	lag := quantileOf(lags, 0.99)
	if lag.Value > float64(lagLimit)/float64(time.Millisecond) {
		res.errs = append(res.errs, fmt.Errorf("invalid run: generator lag p99 %.2fms (%s) exceeds the %v limit", lag.Value, lag, lagLimit))
	}
	res.attempted, res.failed = r.acct.attempted.Load(), r.acct.failed.Load()
	res.note("oracle: %d sessions replayed on the offline twin, %d errors in %d records", twin.sessions, twin.errors, twin.records)
	res.note("requests: attempted %d = succeeded %d + retried %d + failed %d; on the wire %d sent, %d 2xx, %d refused, %d other; replicas answered %d classify/observe 2xx",
		res.attempted, r.acct.succeeded.Load(), r.acct.retried.Load(), res.failed,
		wire.sent.Load(), wire.ok.Load(), wire.refused.Load(), wire.other.Load(), final.servedLoad())
	res.note("fail_ratio %.6f", float64(res.failed)/float64(max(res.attempted, 1)))
	res.note("generator lag: %.3fms at %s, limit %v", lag.Value, lag, lagLimit)
	res.note("fixed rate %.0f req/s: %d visits, %.2f%% released while their session was busy", w.fixedRPS, released, 100*float64(queued)/float64(max(released, 1)))

	if cfg.trace {
		res.add("gen.lag_p99_ms", "ms", lag.Value, nil, lag)
		if err := writeTrace(cfg.traceOut, traced); err != nil {
			return nil, err
		}
		return res, nil
	}
	setups := make([]float64, len(stages))
	for i, st := range stages {
		setups[i] = st.total().Seconds()
	}
	res.add("setup_s", "s", median(setups), setups)
	for _, q := range []struct {
		name    string
		observe bool
		want    float64
	}{
		{"classify_p50_ms", false, 0.5},
		{"classify_p99_ms", false, 0.99},
		{"observe_p50_ms", true, 0.5},
		{"observe_p99_ms", true, 0.99},
	} {
		var vals []float64
		var pcts []percentile
		for _, win := range latencyWindows(open, q.observe) {
			p := quantileOf(win, q.want)
			vals = append(vals, p.Value)
			pcts = append(pcts, p)
		}
		res.add(q.name, "ms", median(vals), vals, pcts...)
	}
	res.add("error_rate", "ratio", float64(served)/float64(max(records, 1)), nil)
	return res, nil
}

// minWindowSamples is the fewest latencies a window holds, so that each
// window's p99 has ten samples above it.
const minWindowSamples = 1000

// latencyWindows groups the fixed-rate segments, in order, into windows
// of at least minWindowSamples classify (or observe) latencies each, in
// milliseconds; the remainder joins the last window. A latency metric is
// the median of its windows' percentiles: a stall of the shared machine
// that spoils one window does not move it.
func latencyWindows(segs []*phaseStats, observe bool) [][]float64 {
	var out [][]float64
	var cur []float64
	for _, ps := range segs {
		samples := ps.classify
		if observe {
			samples = ps.observe
		}
		cur = append(cur, latenciesMs(samples)...)
		if len(cur) >= minWindowSamples {
			out = append(out, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		if len(out) == 0 {
			return [][]float64{cur}
		}
		out[len(out)-1] = append(out[len(out)-1], cur...)
	}
	return out
}

// backlogBound is the most outstanding visits an open loop tolerates: one
// second of them at the offered rate (a queue that long already misses
// every limit).
func (r *runner) backlogBound(rps float64) int {
	return max(256, int(rps/r.w.requestsPerVisit()))
}

// openAt runs one open-loop segment, continuing the revisit order where
// the previous segment left it. It first collects the garbage the previous
// phase left, so that phase's GC cycle does not land in this one's tail.
func (r *runner) openAt(rps float64, dur time.Duration) *phaseStats {
	runtime.GC()
	ps, n := r.openLoop(rps, dur, r.seqOff, r.backlogBound(rps))
	r.seqOff += n
	return ps
}

// measure takes the end-to-end metrics in rounds, two per SLO-ladder
// probe. Each round runs a fixed-rate open-loop segment and a closed-loop
// window, and every other round the ladder search's next probe, so a slow
// stretch of the shared machine lands in a few repeats of every metric
// rather than in every repeat of one. A round's peak live heap, less
// inputsHeap, is one repeat of peak_heap_mb; the probes, whose backlog
// depends on the rate the search reached, are left out of it. It returns
// the fixed-rate segments.
func (r *runner) measure(res *result, S time.Duration, closed [][]int, inputsHeap uint64) []*phaseStats {
	w := r.w
	search := newLadderSearch(w.ladder)
	rounds := 2 * search.steps()
	segOpen := S * 40 / 100 / time.Duration(rounds)
	segClosed := S * 35 / 100 / time.Duration(rounds)
	segProbe := S * 25 / 100 / time.Duration(search.steps())
	var open []*phaseStats
	var rates, peaks []float64
	heap := startHeapSampler(r.slp, 10*time.Millisecond)
	defer heap.finish()
	for k := 0; k < rounds; k++ {
		heap.cut()
		open = append(open, r.openAt(w.fixedRPS, segOpen))
		rates = append(rates, r.closedLoop(closed, segClosed))
		peak := heap.cut()
		peaks = append(peaks, float64(peak-min(inputsHeap, peak))/(1<<20))
		if k%2 == 0 || search.done() {
			continue
		}
		i := search.next()
		ps := r.openAt(w.ladder[i], segProbe)
		v := r.judge(ps, w.ladder[i])
		search.record(i, v.pass)
		res.note("slo probe %.0f req/s: %s", w.ladder[i], v.verdict)
	}
	res.add("records_per_s", "records/s", median(rates), rates)
	res.add("peak_heap_mb", "MB", median(peaks), peaks)
	res.add("slo_rate_rps", "req/s", search.result(), nil)
	closedRPS := median(rates) / float64(w.batch) * w.requestsPerVisit()
	res.note("fixed rate %.0f req/s is %.0f%% of the closed loop's %.0f req/s and %.0f%% of the SLO rate",
		w.fixedRPS, 100*w.fixedRPS/closedRPS, closedRPS, 100*w.fixedRPS/max(search.result(), 1))
	return open
}

// measureTraced takes the traced run's measurements: closed-loop windows
// alternately untraced and traced (their ratio is the tracing overhead),
// then one traced fixed-rate open-loop phase whose spans give the layer
// times, with /metrics scraped around it.
func (r *runner) measureTraced(res *result, S time.Duration, closed [][]int) (open []*phaseStats, traced *obs.Tracer, before, after scrape, err error) {
	const rounds = 4
	var untraced, tracedRates []float64
	for k := 0; k < rounds; k++ {
		untraced = append(untraced, r.closedLoop(closed, S/8/rounds))
		r.tr.cur.Store(obs.NewTracer(r.clk))
		tracedRates = append(tracedRates, r.closedLoop(closed, S/8/rounds))
		r.tr.cur.Store(nil)
	}
	res.add("trace.overhead_ratio", "ratio", median(tracedRates)/median(untraced), nil)
	if before, err = r.scrape(); err != nil {
		return
	}
	traced = obs.NewTracer(r.clk)
	r.tr.cur.Store(traced)
	open = []*phaseStats{r.openAt(r.w.fixedRPS, S*3/10)}
	r.tr.cur.Store(nil)
	after, err = r.scrape()
	return
}

// ladderSearch binary-searches a fixed ascending ladder of rates for the
// highest one that passes.
type ladderSearch struct {
	ladder []float64
	lo, hi int // ladder[lo] passed (-1: none yet); ladder[hi] failed (len: none yet)
}

func newLadderSearch(ladder []float64) *ladderSearch {
	return &ladderSearch{ladder: ladder, lo: -1, hi: len(ladder)}
}

// steps is the most probes the search takes.
func (s *ladderSearch) steps() int { return bits.Len(uint(len(s.ladder))) }

func (s *ladderSearch) done() bool { return s.hi-s.lo <= 1 }

// next is the index of the rate to probe next.
func (s *ladderSearch) next() int { return (s.lo + s.hi) / 2 }

func (s *ladderSearch) record(i int, pass bool) {
	if pass {
		s.lo = i
	} else {
		s.hi = i
	}
}

// result is the highest rate that passed, 0 if none did.
func (s *ladderSearch) result() float64 {
	if s.lo < 0 {
		return 0
	}
	return s.ladder[s.lo]
}

// probeVerdict is one SLO ladder probe's outcome.
type probeVerdict struct {
	pass    bool
	verdict string
}

// judge decides whether one ladder probe at rps met the workload's limit:
// the limited request kind's p99 over the whole probe within the limit, a
// backlog that did not grow by more than the limit's worth of visits from
// the first third of the probe to the last, the generator on time, and
// nothing failed. A probe with fewer than 1000 samples is judged at the
// highest percentile with ten samples above it, and the verdict says so.
func (r *runner) judge(ps *phaseStats, rps float64) probeVerdict {
	w := r.w
	samples := ps.classify
	if w.limitObserve {
		samples = ps.observe
	}
	lats := latenciesMs(samples)
	p99 := quantileOf(lats, 0.99)
	p50 := quantileOf(lats, 0.5)
	lag := quantileOf(lagsMs(ps.lags), 0.99)
	third := max(1, len(ps.backlog)/3)
	growth := meanInt32(ps.backlog[len(ps.backlog)-third:]) - meanInt32(ps.backlog[:third])
	allowed := rps / w.requestsPerVisit() * w.limit.Seconds()
	v := probeVerdict{pass: p99.Value <= float64(w.limit)/float64(time.Millisecond) && growth <= allowed+1 && !ps.truncated &&
		lag.Value <= float64(lagLimit)/float64(time.Millisecond) && ps.failed == 0}
	v.verdict = fmt.Sprintf("%.3fms at %s (p50 %.3fms), backlog growth %.1f visits (allowed %.1f), truncated %v, lag p99 %.3fms, failed %d, pass %v",
		p99.Value, p99, p50.Value, growth, allowed+1, ps.truncated, lag.Value, ps.failed, v.pass)
	return v
}

func meanInt32(xs []int32) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// scrape reads /metrics from every replica and the gate, on a client the
// request accounting does not count.
func (r *runner) scrape() (scrape, error) {
	var sc scrape
	for _, u := range r.sys.replicaURLs() {
		text, err := serve.NewClient(u, r.admin).Metrics()
		if err != nil {
			return sc, fmt.Errorf("scrape %s: %w", u, err)
		}
		sc.replicas = append(sc.replicas, text)
	}
	if r.sys.gateEP != nil {
		text, err := serve.NewClient(r.sys.gateEP.url, r.admin).Metrics()
		if err != nil {
			return sc, fmt.Errorf("scrape gate: %w", err)
		}
		sc.gate = text
	}
	return sc, nil
}

// writeTrace writes the traced run's spans as Chrome-trace JSON.
func writeTrace(path string, tr *obs.Tracer) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return tr.WriteChromeTrace(f)
}
