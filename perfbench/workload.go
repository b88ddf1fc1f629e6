package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"highorder/internal/data"
	"highorder/internal/rng"
	"highorder/internal/serve"
	"highorder/internal/synth"
)

// workload is one traffic mix: the offline history the model is built
// from, the live stream the sessions consume, the wire codec, the request
// shape, and the rates the open loop offers. BENCHMARK.json records why
// each exists.
type workload struct {
	name    string
	stream  string // "stagger" or "hyperplane"
	history int    // records of history the model is built from
	codec   serve.Codec
	// batch is the records per classify request. A session observes
	// observeSize labelled records after every observeEvery-th classify;
	// the labelled records are the head of the batch just classified.
	batch, observeEvery, observeSize int
	// poolBatches distinct classify batches of the live stream are
	// generated; sessions read them in order from different offsets.
	poolBatches int
	// sessions is the open-loop session population; zipf > 0 revisits it
	// in Zipf-skewed order with that exponent, 0 round-robin.
	sessions int
	zipf     float64
	// fleet boots that many tiered replicas behind a gate, each with
	// hotPerReplica hot sessions and the write-ahead label log.
	fleet                   bool
	replicas, hotPerReplica int
	// fixedRPS is the open loop's fixed offered rate, in requests/s.
	fixedRPS float64
	// ladder is the fixed set of rates the SLO search probes, ascending.
	ladder []float64
	// limit is the p99 latency limit of the SLO search, applied to
	// observe when limitObserve is set and to classify otherwise.
	limit        time.Duration
	limitObserve bool
}

// geometric returns the rates lo, lo*r, lo*r^2, ... up to hi, each
// rounded to a whole request per second.
func geometric(lo, hi, r float64) []float64 {
	var out []float64
	for x := lo; x <= hi*1.0001; x *= r {
		out = append(out, math.Round(x))
	}
	return out
}

// workloads are the benchmark's traffic mixes, by name.
var workloads = map[string]*workload{
	"serve-json-b16": {
		name: "serve-json-b16", stream: "stagger", history: 20000,
		codec: serve.CodecJSON, batch: 16, observeEvery: 1, observeSize: 16,
		poolBatches: 16384, sessions: 64,
		fixedRPS: 2500, ladder: geometric(1000, 12000, 1.05),
		limit: 2 * time.Millisecond,
	},
	"classify-bin-b2048": {
		name: "classify-bin-b2048", stream: "hyperplane", history: 50000,
		codec: serve.CodecBinary, batch: 2048, observeEvery: 8, observeSize: 16,
		poolBatches: 96, sessions: 16,
		fixedRPS: 600, ladder: geometric(300, 3000, 1.05),
		limit: 20 * time.Millisecond,
	},
	"fleet-wal-sessions": {
		name: "fleet-wal-sessions", stream: "stagger", history: 20000,
		codec: serve.CodecBinary, batch: 4, observeEvery: 1, observeSize: 4,
		poolBatches: 65536, sessions: 8192, zipf: 1,
		fleet: true, replicas: 2, hotPerReplica: 512,
		fixedRPS: 2000, ladder: geometric(1000, 10000, 1.05),
		limit: 10 * time.Millisecond, limitObserve: true,
	},
}

// requestsPerVisit is the mean number of HTTP requests one session visit
// sends: a classify, plus an observe every observeEvery visits.
func (w *workload) requestsPerVisit() float64 {
	return 1 + 1/float64(w.observeEvery)
}

// batch is one classify request's payload, with the labels the benchmark
// keeps to itself until the session observes them.
type batch struct {
	vectors [][]float64
	classes []int
}

// records returns the batch as labelled records (for the offline twin).
func (b batch) records() []data.Record {
	out := make([]data.Record, len(b.vectors))
	for i, v := range b.vectors {
		out[i] = data.Record{Values: v, Class: b.classes[i]}
	}
	return out
}

// inputs are everything a run sends, generated from the seed before any
// timing starts.
type inputs struct {
	history *data.Dataset
	pool    []batch
	// visits is a long sequence of session indices in revisit order; the
	// open-loop segments read it in turn, cyclically, and on the fleet the
	// closed-loop callers split it between them.
	visits []int
}

// newStream builds the workload's synthetic stream.
func newStream(name string, seed int64) (synth.Stream, error) {
	switch name {
	case "stagger":
		return synth.NewStagger(synth.StaggerConfig{Seed: seed}), nil
	case "hyperplane":
		return synth.NewHyperplane(synth.HyperplaneConfig{Seed: seed}), nil
	}
	return nil, fmt.Errorf("unknown stream %q", name)
}

// visitSequenceLen is the length of the pre-drawn revisit order.
const visitSequenceLen = 1 << 17

// worldSeed fixes each workload's stream: its concepts and its history,
// and so the model a run builds and serves, are the workload's own and
// the same on every run. The run's seed chooses where in that stream the
// live traffic starts and the order sessions are visited in. A Hyperplane
// stream draws its concepts from its seed, so a per-run history would
// make a different model, with a different error rate and classify cost,
// on every seed.
const worldSeed = 1

// maxSkip bounds how far into the stream past the history a run's live
// traffic starts.
const maxSkip = 1 << 20

// generate draws the workload's inputs: the history from the workload's
// fixed stream, then, from seed, a skip into the stream past it, the live
// pool from there on, and the session revisit order.
func (w *workload) generate(seed int64) (*inputs, error) {
	g, err := newStream(w.stream, worldSeed)
	if err != nil {
		return nil, err
	}
	in := &inputs{history: synth.TakeDataset(g, w.history)}
	src := rng.New(seed)
	for skip := src.Intn(maxSkip); skip > 0; skip-- {
		g.Next()
	}
	in.pool = make([]batch, w.poolBatches)
	for i := range in.pool {
		b := batch{vectors: make([][]float64, w.batch), classes: make([]int, w.batch)}
		for j := range b.vectors {
			r := g.Next().Record
			b.vectors[j], b.classes[j] = r.Values, r.Class
		}
		in.pool[i] = b
	}
	in.visits = visitOrder(src.Split(), w.sessions, w.zipf, visitSequenceLen)
	return in, nil
}

// visitOrder returns n session indices in [0, sessions): round-robin when
// z <= 0, otherwise Zipf(z) over a seeded permutation of the sessions, so
// the hottest ranks land on arbitrary sessions (and replicas).
func visitOrder(src *rng.Source, sessions int, z float64, n int) []int {
	out := make([]int, n)
	if z <= 0 {
		for i := range out {
			out[i] = i % sessions
		}
		return out
	}
	perm := src.Perm(sessions)
	cdf := make([]float64, sessions)
	total := 0.0
	for k := range cdf {
		total += 1 / math.Pow(float64(k+1), z)
		cdf[k] = total
	}
	for i := range out {
		u := src.Float64() * total
		k := sort.SearchFloat64s(cdf, u)
		out[i] = perm[min(k, sessions-1)]
	}
	return out
}
