package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"highorder/internal/clock"
	"highorder/internal/compiled"
	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/obs"
	"highorder/internal/serve"
	"highorder/internal/store"
)

// predictorProbe is the predictor layer timed on the offline twin.
type predictorProbe struct {
	classifyNs, interpretedNs, observeNs float64 // per record
	allocsPerBatch                       float64
	records                              int
}

// probePredictor replays the sessions' visits, in order, through the
// compiled predictor and the interpreted core.Predictor, timing classify
// and observe per record, until maxRecords records were classified.
func probePredictor(clk clock.Clock, tr *obs.Tracer, model *core.Model, in *inputs, w *workload, sessions []*session, maxRecords int) (predictorProbe, error) {
	var pp predictorProbe
	cm, err := compiled.Compile(model)
	if err != nil {
		return pp, fmt.Errorf("compile: %w", err)
	}
	recs := make([][]data.Record, len(in.pool))
	for i, b := range in.pool {
		recs[i] = b.records()
	}
	preds := make([]int, w.batch)
	var t replayTimes
	for _, s := range sessions {
		if t.records >= maxRecords || s.visits == 0 {
			continue
		}
		if err := t.replay(clk, tr, cm, model, recs, w, s, preds); err != nil {
			return pp, err
		}
	}
	pp.records = t.records
	if pp.records == 0 {
		return pp, errors.New("predictor probe: no served classify to replay")
	}
	pp.classifyNs = float64(t.classify.Nanoseconds()) / float64(t.records)
	pp.interpretedNs = float64(t.interpreted.Nanoseconds()) / float64(t.records)
	pp.observeNs = float64(t.observe.Nanoseconds()) / float64(max(t.observed, 1))
	pp.allocsPerBatch = allocsPerBatch(cm, recs, preds, allocProbeBatches)
	return pp, nil
}

// replayTimes accumulates the predictor probe's timings.
type replayTimes struct {
	classify, interpreted, observe time.Duration
	records, observed              int
}

// replay runs one session's visits through a fresh compiled predictor
// and a fresh interpreted twin, timing each call into the predictor.
func (t *replayTimes) replay(clk clock.Clock, tr *obs.Tracer, cm *compiled.Model, model *core.Model,
	recs [][]data.Record, w *workload, s *session, preds []int) error {
	cp := cm.NewPredictor(core.PredictorOptions{})
	ip := model.NewPredictor()
	sp := tr.StartSpan(spanTwinClassify)
	defer sp.End()
	err := replayVisits(w, len(recs), s.off, s.visits, func(bi int) error {
		r := recs[bi]
		start := clk()
		cp.ClassifyBatch(r, preds)
		t.classify += clk.Since(start)
		start = clk()
		for _, x := range r {
			if ip.Predict(data.Record{Values: x.Values}) < 0 {
				return errors.New("interpreted predictor returned no class")
			}
		}
		t.interpreted += clk.Since(start)
		t.records += len(r)
		return nil
	}, func(bi int) error {
		r := recs[bi][:w.observeSize]
		osp := tr.StartSpan(spanTwinObserve)
		start := clk()
		for _, x := range r {
			cp.Observe(x)
		}
		t.observe += clk.Since(start)
		osp.End()
		for _, x := range r {
			ip.Observe(x)
		}
		t.observed += len(r)
		return nil
	})
	sp.SetArg("records", int64(t.records))
	return err
}

// allocProbeBatches is how many batches the allocation count averages.
const allocProbeBatches = 256

// allocsPerBatch counts the compiled predictor's heap allocations per
// ClassifyBatch, as testing.AllocsPerRun does: one exact count around a
// loop of batches, with nothing else in the loop.
func allocsPerBatch(cm *compiled.Model, recs [][]data.Record, preds []int, n int) float64 {
	p := cm.NewPredictor(core.PredictorOptions{})
	p.ClassifyBatch(recs[0], preds)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		p.ClassifyBatch(recs[i%len(recs)], preds)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// codecProbe is the serve codec timed on the workload's own batches.
type codecProbe struct {
	encodeNs, decodeNs          float64 // request + response, per record
	requestBytes, responseBytes float64 // per record
}

// probeCodec encodes and decodes classify requests and responses in the
// workload's codec over the pool's batches, for at least minDur.
func probeCodec(clk clock.Clock, tr *obs.Tracer, in *inputs, w *workload, minDur time.Duration) (codecProbe, error) {
	var cp codecProbe
	var encT, decT time.Duration
	var reqBytes, respBytes, records int
	preds := make([]int, w.batch)
	start := clk()
	esp := tr.StartSpan(spanCodecEncode)
	dsp := tr.StartSpan(spanCodecDecode)
	defer esp.End()
	defer dsp.End()
	for i := 0; clk.Since(start) < minDur || i < len(in.pool); i++ {
		b := in.pool[i%len(in.pool)]
		copy(preds, b.classes)
		req := serve.ClassifyRequest{Records: b.vectors}
		resp := serve.ClassifyResponse{Predictions: preds}
		t := clk()
		reqFrame, err := encodeRequest(w.codec, req)
		if err != nil {
			return cp, err
		}
		respFrame, err := encodeResponse(w.codec, resp)
		if err != nil {
			return cp, err
		}
		encT += clk.Since(t)
		t = clk()
		if err := decodeFrames(w.codec, reqFrame, respFrame); err != nil {
			return cp, err
		}
		decT += clk.Since(t)
		reqBytes += len(reqFrame)
		respBytes += len(respFrame)
		records += len(b.vectors)
	}
	esp.SetArg("records", int64(records))
	dsp.SetArg("records", int64(records))
	cp.encodeNs = float64(encT.Nanoseconds()) / float64(records)
	cp.decodeNs = float64(decT.Nanoseconds()) / float64(records)
	cp.requestBytes = float64(reqBytes) / float64(records)
	cp.responseBytes = float64(respBytes) / float64(records)
	return cp, nil
}

func encodeRequest(c serve.Codec, req serve.ClassifyRequest) ([]byte, error) {
	if c == serve.CodecBinary {
		return serve.EncodeBinaryClassifyRequest(req)
	}
	return json.Marshal(req)
}

func encodeResponse(c serve.Codec, resp serve.ClassifyResponse) ([]byte, error) {
	if c == serve.CodecBinary {
		return serve.EncodeBinaryClassifyResponse(resp)
	}
	return json.Marshal(resp)
}

func decodeFrames(c serve.Codec, reqFrame, respFrame []byte) error {
	if c == serve.CodecBinary {
		if _, err := serve.DecodeBinaryClassifyRequest(reqFrame); err != nil {
			return err
		}
		_, err := serve.DecodeBinaryClassifyResponse(respFrame)
		return err
	}
	var req serve.ClassifyRequest
	if err := json.Unmarshal(reqFrame, &req); err != nil {
		return err
	}
	var resp serve.ClassifyResponse
	return json.Unmarshal(respFrame, &resp)
}

// storeProbeSessions is how many sessions the store probe spreads its
// appends over.
const storeProbeSessions = 8

// probeStore opens a write-ahead-logged store of its own in dir (on the
// same filesystem as the replicas' spill directories), appends the
// workload's observe payloads with LogObserve — each append fsyncs —
// and returns every call's latency in microseconds. It stops after calls
// appends or maxDur, and removes dir on every path.
func probeStore(clk clock.Clock, tr *obs.Tracer, dir string, payloads [][]byte, calls int, maxDur time.Duration) (lat []float64, err error) {
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = fmt.Errorf("store probe cleanup: %w", rerr)
		}
	}()
	if len(payloads) == 0 {
		return nil, errors.New("store probe: no observe payloads")
	}
	raw := func(_ string, b []byte) ([]byte, error) { return b, nil }
	st, err := store.Open[[]byte](store.Config{Dir: dir, HotLimit: storeProbeSessions, WAL: true}, store.Callbacks[[]byte]{
		Snapshot: func(_ string, v []byte) ([]byte, uint64, error) { return v, 0, nil },
		Hydrate:  raw,
		Create:   raw,
		Replay:   func(string, []byte, []byte) (int, error) { return 0, nil },
	})
	if err != nil {
		return nil, fmt.Errorf("store probe open: %w", err)
	}
	defer func() {
		if cerr := st.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("store probe close: %w", cerr)
		}
	}()
	ids := make([]string, storeProbeSessions)
	seqs := make([]uint64, storeProbeSessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("probe-%d", i)
		if err := st.Put(ids[i], nil, nil); err != nil {
			return nil, fmt.Errorf("store probe put: %w", err)
		}
	}
	sp := tr.StartSpan(spanStoreProbe)
	defer sp.End()
	start := clk()
	for i := 0; i < calls && clk.Since(start) < maxDur; i++ {
		k := i % storeProbeSessions
		p := payloads[i%len(payloads)]
		t := clk()
		if err := st.LogObserve(ids[k], seqs[k], p); err != nil {
			return nil, fmt.Errorf("store probe append: %w", err)
		}
		lat = append(lat, us(clk.Since(t)))
		seqs[k]++
	}
	sp.SetArg("calls", int64(len(lat)))
	return lat, nil
}

// observePayloads encodes the workload's observe batches the way the
// serving layer logs them: the applied records, JSON-encoded.
func observePayloads(in *inputs, w *workload, n int) ([][]byte, error) {
	out := make([][]byte, 0, n)
	for i := 0; i < n && i < len(in.pool); i++ {
		b, err := json.Marshal(in.pool[i].records()[:w.observeSize])
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}
