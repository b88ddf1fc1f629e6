package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"highorder/internal/clock"
	"highorder/internal/serve"
)

func TestNameGrammar(t *testing.T) {
	for _, name := range []string{"setup_s", "build.models_trained", "gen.lag_p99_ms", "serve-json-b16", "9lives"} {
		if !validName(name) {
			t.Errorf("validName(%q) = false, want true", name)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "b"
	}
	for _, name := range []string{"", "_lead", ".lead", "-lead", "has space", "slash/name", "colon:name", long} {
		if validName(name) {
			t.Errorf("validName(%q) = true, want false", name)
		}
	}
	for _, unit := range []string{"ms", "s", "1/s", "count", "records/s", "%", "MB"} {
		if !validUnit(unit) {
			t.Errorf("validUnit(%q) = false, want true", unit)
		}
	}
	for _, unit := range []string{"", "m s", "seventeen-letters"} {
		if validUnit(unit) {
			t.Errorf("validUnit(%q) = true, want false", unit)
		}
	}
}

// TestSpecMatchesWorkloads checks BENCHMARK.json against the code: every
// declared name obeys the grammar, and the declared workloads are exactly
// the ones the benchmark can run.
func TestSpecMatchesWorkloads(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
	bad := spec{EndToEnd: []metricSpec{{Name: "a b", Unit: "ms", Better: "lower"}}}
	if bad.validate() == nil {
		t.Error("validate accepted an illegal metric name")
	}
	dup := spec{PerLayer: []metricSpec{{Name: "x", Unit: "ms", Better: "lower"}, {Name: "x", Unit: "ms", Better: "lower"}}}
	if dup.validate() == nil {
		t.Error("validate accepted a name used twice")
	}
}

func TestTailQuantileRule(t *testing.T) {
	for _, c := range []struct {
		want float64
		n    int
		q    float64
	}{
		{0.99, 1000, 0.99},
		{0.99, 5000, 0.99},
		{0.99, 500, 0.98},
		{0.99, 200, 0.95},
		{0.99, 15, 0.5},
		{0.5, 3, 0.5},
		{0.99, 0, 0.5},
	} {
		if got := tailQuantile(c.want, c.n); got != c.q {
			t.Errorf("tailQuantile(%v, %d) = %v, want %v", c.want, c.n, got, c.q)
		}
	}
	for _, n := range []int{200, 500, 1000, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so quantileOf must sort
		}
		p := quantileOf(xs, 0.99)
		if p.N != n {
			t.Errorf("n=%d: sample count %d", n, p.N)
		}
		above := 0
		for _, x := range xs {
			if x > p.Value {
				above++
			}
		}
		if above < minTail {
			t.Errorf("n=%d: p%v = %v has %d samples above it, want >= %d", n, p.Q*100, p.Value, above, minTail)
		}
		if n >= 1000 && p.Q != 0.99 {
			t.Errorf("n=%d: reported quantile %v, want 0.99", n, p.Q)
		}
	}
	if s := (percentile{Q: 0.98, N: 500}).String(); s != "p98 of 500" {
		t.Errorf("percentile string %q", s)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{5, 1, 3, 2, 4})
	if s.N != 5 || s.Min != 1 || s.Q1 != 2 || s.Median != 3 || s.Q3 != 4 || s.Max != 5 {
		t.Errorf("summarize = %+v", s)
	}
}

// TestOpenLoopTimesFromDue drives the pacer and the per-session queue on a
// fake clock. One session gets three visits due 1ms apart, each taking
// 3ms: the second and third are released late and wait behind the first,
// and their latency counts from when they were due, not from when they
// were sent.
func TestOpenLoopTimesFromDue(t *testing.T) {
	fake := clock.NewFake(time.Unix(1000, 0))
	clk := fake.Clock()
	start := clk().Add(time.Millisecond)
	var f fifo
	var lats []time.Duration
	inline := func(fn func()) { fn() }
	lags := pace(clk, fake.Sleeper(), start, time.Millisecond, 3, func(i int, due time.Time) bool {
		f.submit(due, inline, func(due time.Time) {
			fake.Advance(3 * time.Millisecond)
			lats = append(lats, clk().Sub(due))
		})
		return true
	})
	wantLat := []time.Duration{3 * time.Millisecond, 5 * time.Millisecond, 7 * time.Millisecond}
	wantLag := []time.Duration{0, 2 * time.Millisecond, 4 * time.Millisecond}
	for i := range wantLat {
		if lats[i] != wantLat[i] {
			t.Errorf("visit %d latency %v, want %v (timed from due)", i, lats[i], wantLat[i])
		}
		if lags[i] != wantLag[i] {
			t.Errorf("visit %d generator lag %v, want %v", i, lags[i], wantLag[i])
		}
	}
	// A visit due in the future is waited out, not sent early.
	fake2 := clock.NewFake(time.Unix(0, 0))
	at := fake2.Clock()().Add(5 * time.Millisecond)
	pace(fake2.Clock(), fake2.Sleeper(), at, time.Millisecond, 1, func(_ int, due time.Time) bool {
		if now := fake2.Clock()(); !now.Equal(due) {
			t.Errorf("released at %v, due %v", now, due)
		}
		return true
	})
	// release returning false stops the schedule.
	n := 0
	pace(fake2.Clock(), fake2.Sleeper(), at, time.Millisecond, 10, func(int, time.Time) bool {
		n++
		return n < 4
	})
	if n != 4 {
		t.Errorf("released %d after stop, want 4", n)
	}
}

// TestFifoQueuesBehindBusySession checks that a visit submitted while its
// session is busy runs after the running one, in order, on the same
// worker, with its own due time.
func TestFifoQueuesBehindBusySession(t *testing.T) {
	var f fifo
	var workers []func()
	spawn := func(fn func()) { workers = append(workers, fn) }
	var mu sync.Mutex
	var order []int64
	visit := func(due time.Time) {
		mu.Lock()
		order = append(order, due.Unix())
		mu.Unlock()
	}
	for i := int64(1); i <= 3; i++ {
		f.submit(time.Unix(i, 0), spawn, visit)
	}
	if len(workers) != 1 {
		t.Fatalf("%d workers spawned for one busy session, want 1", len(workers))
	}
	workers[0]()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("visits ran in order %v, want [1 2 3]", order)
	}
	f.submit(time.Unix(4, 0), spawn, visit)
	if len(workers) != 2 {
		t.Fatalf("an idle session did not get a new worker")
	}
}

func TestStoreProbeRemovesItsDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store-probe")
	lat, err := probeStore(clock.Clock(nil).OrWall(), nil, dir, [][]byte{[]byte(`[{"Values":[1],"Class":0}]`)}, 20, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(lat) != 20 {
		t.Errorf("%d appends timed, want 20", len(lat))
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("probe directory left behind: stat err %v", err)
	}

	// A failing probe cleans up too, including what was already there.
	bad := filepath.Join(t.TempDir(), "store-probe")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, "stray"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := probeStore(clock.Clock(nil).OrWall(), nil, bad, nil, 1, time.Minute); err == nil {
		t.Error("probe with no payloads did not fail")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Errorf("failed probe left its directory behind: stat err %v", err)
	}
}

func TestHistQuantilesMergesReplicas(t *testing.T) {
	a := "h_bucket{le=\"0.001\"} 10\nh_bucket{le=\"0.01\"} 10\nh_bucket{le=\"+Inf\"} 10\n"
	b := "h_bucket{le=\"0.001\"} 0\nh_bucket{le=\"0.01\"} 10\nh_bucket{le=\"+Inf\"} 10\n"
	qs, ok := histQuantiles([]string{a, b}, nil, "h", 0.25, 0.75)
	if !ok {
		t.Fatal("no histogram found")
	}
	if qs[0] > 0.001 || qs[1] <= 0.001 || qs[1] > 0.01 {
		t.Errorf("merged quantiles %v: want p25 in the first bucket, p75 in the second", qs)
	}
	if _, ok := histQuantiles([]string{"other 1\n"}, nil, "h", 0.5); ok {
		t.Error("found a histogram in text without one")
	}
	// Less an earlier scrape, only the observations in between count: all
	// of them landed in the second bucket.
	if qs, ok := histQuantiles([]string{a, b}, []string{a}, "h", 0.01); !ok || qs[0] <= 0.001 {
		t.Errorf("quantiles since the earlier scrape %v, %v: want p1 in the second bucket", qs, ok)
	}
	if _, ok := histQuantiles([]string{a}, []string{a}, "h", 0.5); ok {
		t.Error("found observations between two identical scrapes")
	}
}

func TestLadderSearch(t *testing.T) {
	ladder := geometric(100, 1000, 1.05)
	for _, capacity := range []float64{50, 100, 333, 999, 1000, 5000} {
		s := newLadderSearch(ladder)
		probes := 0
		for !s.done() {
			i := s.next()
			s.record(i, ladder[i] <= capacity)
			probes++
		}
		if probes > s.steps() {
			t.Errorf("capacity %v: %d probes, steps() promised at most %d", capacity, probes, s.steps())
		}
		want := 0.0
		for _, r := range ladder {
			if r <= capacity {
				want = r
			}
		}
		if got := s.result(); got != want {
			t.Errorf("capacity %v: search found %v, want %v", capacity, got, want)
		}
	}
}

func TestLatencyWindows(t *testing.T) {
	seg := func(n int) *phaseStats {
		ps := &phaseStats{}
		for i := 0; i < n; i++ {
			ps.classify = append(ps.classify, sample{lat: time.Millisecond})
		}
		return ps
	}
	sizes := func(ws [][]float64) []int {
		var out []int
		for _, w := range ws {
			out = append(out, len(w))
		}
		return out
	}
	for _, c := range []struct {
		segs []int
		want []int
	}{
		{[]int{600, 600, 600, 600, 100}, []int{1200, 1300}},
		{[]int{1500, 1500}, []int{1500, 1500}},
		{[]int{300, 300}, []int{600}},
	} {
		var segs []*phaseStats
		for _, n := range c.segs {
			segs = append(segs, seg(n))
		}
		got := sizes(latencyWindows(segs, false))
		if len(got) != len(c.want) {
			t.Errorf("segments %v: windows %v, want %v", c.segs, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("segments %v: windows %v, want %v", c.segs, got, c.want)
				break
			}
		}
	}
	if ws := latencyWindows([]*phaseStats{seg(5)}, true); len(ws) != 0 {
		t.Errorf("observe windows over segments with none: %v", sizes(ws))
	}
}

// TestBalanceCatchesLostAndDoubleCountedRequests drives the retry loop
// against a server that refuses every third request, then checks that
// the balance holds, and that a request sent past the loop, a success
// counted twice, or a 2xx the replicas did not count each break it.
func TestBalanceCatchesLostAndDoubleCountedRequests(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/healthz" && hits.Add(1)%3 == 1 {
			w.WriteHeader(http.StatusTooManyRequests)
		}
	}))
	defer srv.Close()
	base := &http.Transport{}
	defer base.CloseIdleConnections()
	fake := clock.NewFake(time.Unix(0, 0))
	var r runner
	r.slp = fake.Sleeper()
	r.wire = &wireCounts{base: base}
	hc := &http.Client{Transport: r.wire}
	get := func(path string) error {
		resp, err := hc.Get(srv.URL + path)
		if err != nil {
			return err
		}
		if err := resp.Body.Close(); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return &serve.HTTPError{Status: resp.StatusCode}
		}
		return nil
	}
	const calls = 6
	for i := 0; i < calls; i++ {
		if err := r.call(func() error { return get("/v1/sessions/s/classify") }); err != nil {
			t.Fatal(err)
		}
	}
	if r.acct.retried.Load() == 0 {
		t.Fatal("no request was refused and retried")
	}
	if err := checkBalance(&r.acct, r.wire, calls); err != nil {
		t.Fatalf("balanced run reported: %v", err)
	}
	if err := checkBalance(&r.acct, r.wire, calls-1); err == nil {
		t.Error("a 2xx the replicas did not count went unnoticed")
	}

	// A request that bypasses the retry loop's accounting.
	if err := get("/healthz"); err != nil {
		t.Fatal(err)
	}
	if err := checkBalance(&r.acct, r.wire, calls); err == nil {
		t.Error("a request sent outside the accounting went unnoticed")
	}
	r.acct.attempted.Add(1)
	r.acct.succeeded.Add(1)
	if err := checkBalance(&r.acct, r.wire, calls); err != nil {
		t.Fatalf("rebalanced run reported: %v", err)
	}

	// A success counted twice.
	r.acct.attempted.Add(1)
	r.acct.succeeded.Add(1)
	if err := checkBalance(&r.acct, r.wire, calls); err == nil {
		t.Error("a success counted twice went unnoticed")
	}
}

func TestServedLoadCountsReplicaSuccesses(t *testing.T) {
	text := `homserve_requests_total{endpoint="classify",code="200"} 7
homserve_requests_total{endpoint="classify",code="429"} 3
homserve_requests_total{endpoint="observe",code="200"} 5
homserve_requests_total{endpoint="session_info",code="200"} 2
`
	sc := scrape{replicas: []string{text, text}}
	if got := sc.servedLoad(); got != 24 {
		t.Errorf("served load %d, want 24 (2 replicas x 7 classify + 5 observe)", got)
	}
}
