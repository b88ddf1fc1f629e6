package main

import (
	"fmt"
	"math"
	"sync"

	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/serve"
)

// twinResult is what the offline twin computed over every session's visits.
type twinResult struct {
	records, errors int64
	sessions        int
}

// verify is the correctness oracle. For each session it replays the
// session's visits into an offline core.Predictor twin built from the
// pre-round-trip model: the served classifies must hash, in order, to the
// twin's predictions with the same error count, and the served session's
// final active probabilities must equal the twin's bit for bit.
func (r *runner) verify(model *core.Model, workers int) (twinResult, error) {
	var (
		mu   sync.Mutex
		res  twinResult
		errs []error
		wg   sync.WaitGroup
	)
	next := make(chan *session)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				var part twinResult
				err := r.verifySession(model, s, &part)
				mu.Lock()
				res.records += part.records
				res.errors += part.errors
				res.sessions++
				if err != nil && len(errs) < 10 {
					errs = append(errs, err)
				}
				mu.Unlock()
			}
		}()
	}
	for _, s := range r.sessions {
		if s.visits > 0 {
			next <- s
		}
	}
	close(next)
	wg.Wait()
	if len(errs) > 0 {
		return res, fmt.Errorf("oracle: %v", errs)
	}
	return res, nil
}

// verifySession replays one session into a fresh twin and compares.
func (r *runner) verifySession(model *core.Model, s *session, res *twinResult) error {
	twin := model.NewPredictor()
	preds := make([]int, r.w.batch)
	var classified int
	var errors int64
	var hash uint64
	err := replayVisits(r.w, len(r.in.pool), s.off, s.visits, func(bi int) error {
		b := r.in.pool[bi]
		for j, v := range b.vectors {
			preds[j] = twin.Predict(data.Record{Values: v})
			if preds[j] != b.classes[j] {
				errors++
			}
		}
		classified++
		hash = foldHash(hash, hashPredictions(preds))
		return nil
	}, func(bi int) error {
		b := r.in.pool[bi]
		for j := 0; j < r.w.observeSize; j++ {
			twin.Observe(data.Record{Values: b.vectors[j], Class: b.classes[j]})
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.records += int64(classified * r.w.batch)
	res.errors += errors
	if classified != s.classified || hash != s.hash || errors != s.errors {
		return fmt.Errorf("session %s: served %d classifies with %d errors, hash %x; the twin %d with %d, hash %x",
			s.id, s.classified, s.errors, s.hash, classified, errors, hash)
	}
	var info serve.SessionInfo
	if err := r.call(func() error {
		var err error
		info, err = s.client.Info(s.id)
		return err
	}); err != nil {
		return fmt.Errorf("session %s info: %w", s.id, err)
	}
	want := twin.Snapshot()
	if info.Observed != want.Observed || len(info.Active) != len(want.Active) {
		return fmt.Errorf("session %s: served %d observed over %d concepts, twin %d over %d",
			s.id, info.Observed, len(info.Active), want.Observed, len(want.Active))
	}
	for c := range want.Active {
		if math.Float64bits(info.Active[c]) != math.Float64bits(want.Active[c]) {
			return fmt.Errorf("session %s: active probability of concept %d is %v served, %v twin", s.id, c, info.Active[c], want.Active[c])
		}
	}
	return nil
}
