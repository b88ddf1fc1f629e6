package main

import (
	"fmt"
	"path/filepath"
	"time"

	"highorder/internal/obs"
	"highorder/internal/serve"
)

// layerMetrics assembles the per-layer metrics of a traced run: the
// offline build's counters and stage times, the predictor and codec
// probes, the handler spans of the traced fixed-rate phase, the servers'
// own counters and histograms, and the store probe.
func (r *runner) layerMetrics(res *result, traced *obs.Tracer, before, after scrape, open *phaseStats, stages []stageTimes) error {
	w := r.w
	var builds, trips, compiles []float64
	for _, st := range stages {
		builds = append(builds, st.build.Seconds())
		trips = append(trips, st.roundtrip.Seconds())
		compiles = append(compiles, st.compile.Seconds())
	}
	cs := r.sys.built.Stats.Clustering
	res.add("build.s", "s", median(builds), builds)
	res.add("build.models_trained", "count", float64(cs.ModelsTrained), nil)
	res.add("build.models_reused", "count", float64(cs.ModelsReused), nil)
	res.add("build.edges_evaluated", "count", float64(cs.EdgesEvaluated), nil)
	res.add("build.edges_pruned", "count", float64(cs.EdgesPruned), nil)
	res.add("build.records_copied", "count", float64(cs.RecordsCopied), nil)
	res.add("dataio.model_roundtrip_s", "s", median(trips), trips)
	res.add("compiled.compile_s", "s", median(compiles), compiles)

	// The spans of the fixed-rate phase, before the probes add theirs.
	lt := joinSpans(traced.Snapshot()).layers()

	pp, err := probePredictor(r.clk, traced, r.sys.built, r.in, w, r.sessions, predictorProbeRecords)
	if err != nil {
		return err
	}
	res.add("predictor.classify_ns_per_record", "ns", pp.classifyNs, nil)
	res.add("predictor.interpreted_classify_ns_per_record", "ns", pp.interpretedNs, nil)
	res.add("predictor.observe_ns_per_record", "ns", pp.observeNs, nil)
	res.add("predictor.allocs_per_batch", "count", pp.allocsPerBatch, nil)
	res.note("predictor probe: %d records replayed", pp.records)

	cp, err := probeCodec(r.clk, traced, r.in, w, 300*time.Millisecond)
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	res.add("codec.encode_ns_per_record", "ns", cp.encodeNs, nil)
	res.add("codec.decode_ns_per_record", "ns", cp.decodeNs, nil)
	res.add("codec.request_bytes_per_record", "B", cp.requestBytes, nil)
	res.add("codec.response_bytes_per_record", "B", cp.responseBytes, nil)

	addPct := func(name string, xs []float64, q float64) {
		if len(xs) == 0 {
			res.add(name, "us", 0, nil)
			return
		}
		p := quantileOf(xs, q)
		res.add(name, "us", p.Value, nil, p)
	}
	addPct("serve.handler_classify_us_p50", lt.handlerClassify, 0.5)
	addPct("serve.handler_classify_us_p99", lt.handlerClassify, 0.99)
	addPct("serve.handler_observe_us_p50", lt.handlerObserve, 0.5)
	addPct("serve.handler_observe_us_p99", lt.handlerObserve, 0.99)
	addPct("serve.transport_us_p50", lt.transport, 0.5)
	res.add("serve.queue_depth_max", "count", after.max("homserve_queue_depth_max"), nil)
	delta := func(name string) float64 { return after.sum(name) - before.sum(name) }
	res.add("serve.rejected", "count", delta("homserve_rejected_total"), nil)
	res.add("serve.shed", "count", delta("hom_shed_total"), nil)
	res.add("serve.deadline_expired", "count", delta("hom_deadline_expired_total"), nil)

	addPct("gate.handler_us_p50", lt.gateHandler, 0.5)
	addPct("gate.self_us_p50", lt.gateSelf, 0.5)
	route := 0.0
	if qs, ok := histQuantiles([]string{after.gate}, []string{before.gate}, "hom_gate_route_seconds", 0.99); ok {
		route = qs[0] * 1e6
	}
	res.add("gate.route_us_p99", "us", route, nil)
	gateDelta := func(name string) float64 {
		a, _ := serve.MetricValue(after.gate, name)
		b, _ := serve.MetricValue(before.gate, name)
		return a - b
	}
	res.add("gate.parked", "count", gateDelta("hom_gate_parked_total"), nil)
	res.add("gate.sessions_lost", "count", gateDelta("hom_gate_sessions_lost_total"), nil)

	hydrate := []float64{0, 0}
	if qs, ok := histQuantiles(after.replicas, before.replicas, "hom_session_hydrate_seconds", 0.5, 0.99); ok {
		hydrate = []float64{qs[0] * 1e6, qs[1] * 1e6}
	}
	res.add("store.hydrate_us_p50", "us", hydrate[0], nil)
	res.add("store.hydrate_us_p99", "us", hydrate[1], nil)
	spills := delta("hom_spill_total")
	hydrates := delta("hom_hydrate_total")
	res.add("store.spills", "count", spills, nil)
	res.add("store.hydrates", "count", hydrates, nil)
	res.add("store.hot_hit_ratio", "ratio", 1-hydrates/float64(max(open.requests.Load(), 1)), nil)
	payloads, err := observePayloads(r.in, w, 64)
	if err != nil {
		return err
	}
	lat, err := probeStore(r.clk, traced, filepath.Join(r.dir, "store-probe"), payloads, storeProbeCalls, 1500*time.Millisecond)
	if err != nil {
		return err
	}
	addPct("store.log_observe_us_p50", lat, 0.5)
	addPct("store.log_observe_us_p99", lat, 0.99)

	unattributed := 0.0
	if lt.clientTotal > 0 {
		unattributed = 1 - lt.handlerTotal.Seconds()/lt.clientTotal.Seconds()
	}
	res.add("trace.unattributed_ratio", "ratio", unattributed, nil)
	res.note("traced requests joined client to handler: %d", len(lt.transport))
	return nil
}
