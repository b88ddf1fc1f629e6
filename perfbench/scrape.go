package main

import (
	"sort"
	"strconv"
	"strings"

	"highorder/internal/obs"
	"highorder/internal/serve"
)

// scrape is the /metrics text of every replica (and the gate) at one
// moment.
type scrape struct {
	replicas []string
	gate     string
}

// sum adds an unlabelled counter or gauge over the replicas.
func (s scrape) sum(name string) float64 {
	total := 0.0
	for _, text := range s.replicas {
		if v, ok := serve.MetricValue(text, name); ok {
			total += v
		}
	}
	return total
}

// max is the largest value of an unlabelled gauge over the replicas.
func (s scrape) max(name string) float64 {
	m := 0.0
	for _, text := range s.replicas {
		if v, ok := serve.MetricValue(text, name); ok && v > m {
			m = v
		}
	}
	return m
}

// sumWhere adds the named labelled counter over the replicas, over the
// series whose labels keep accepts.
func (s scrape) sumWhere(name string, keep func(labels map[string]string) bool) float64 {
	total := 0.0
	for _, text := range s.replicas {
		for _, line := range strings.Split(text, "\n") {
			rest, ok := strings.CutPrefix(line, name+"{")
			if !ok {
				continue
			}
			labels, value, ok := strings.Cut(rest, "} ")
			if !ok || !keep(parseLabels(labels)) {
				continue
			}
			if v, err := strconv.ParseFloat(strings.TrimSpace(value), 64); err == nil {
				total += v
			}
		}
	}
	return total
}

// parseLabels splits `k1="v1",k2="v2"` into a map; the exposition's label
// values hold no quotes or commas.
func parseLabels(s string) map[string]string {
	out := map[string]string{}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if ok {
			out[k] = strings.Trim(v, `"`)
		}
	}
	return out
}

// servedLoad is the classify and observe requests the replicas answered
// 2xx since they booted.
func (s scrape) servedLoad() int64 {
	return int64(s.sumWhere("homserve_requests_total", func(l map[string]string) bool {
		return (l["endpoint"] == "classify" || l["endpoint"] == "observe") && strings.HasPrefix(l["code"], "2")
	}))
}

// bucketCounts adds the named unlabelled histogram's cumulative bucket
// counts over texts, by upper bound, and its total count.
func bucketCounts(texts []string, name string) (map[float64]int64, int64) {
	cum := map[float64]int64{}
	var total int64
	prefix := name + `_bucket{le="`
	for _, text := range texts {
		for _, line := range strings.Split(text, "\n") {
			rest, ok := strings.CutPrefix(line, prefix)
			if !ok {
				continue
			}
			le, count, ok := strings.Cut(rest, `"} `)
			if !ok {
				continue
			}
			n, err := strconv.ParseInt(strings.TrimSpace(count), 10, 64)
			if err != nil {
				continue
			}
			if le == "+Inf" {
				total += n
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			cum[bound] += n
		}
	}
	return cum, total
}

// histQuantiles merges the named unlabelled histogram over after bucket by
// bucket, less what it already held in before (nil: nothing), and
// estimates the quantiles qs of the observations in between; false when
// there are none.
func histQuantiles(after, before []string, name string, qs ...float64) ([]float64, bool) {
	cum, total := bucketCounts(after, name)
	old, oldTotal := bucketCounts(before, name)
	total -= oldTotal
	if total <= 0 {
		return nil, false
	}
	bounds := make([]float64, 0, len(cum))
	for b := range cum {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	counts := make([]int64, len(bounds))
	prev := int64(0)
	for i, b := range bounds {
		c := cum[b] - old[b]
		counts[i] = c - prev
		prev = c
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = obs.BucketQuantile(bounds, counts, total-prev, total, q)
	}
	return out, true
}
