package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// specPath is BENCHMARK.json, read from the root of the checkout the
// benchmark runs in.
const specPath = "BENCHMARK.json"

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// workloadSpec is one workload declared in BENCHMARK.json.
type workloadSpec struct {
	Name string `json:"name"`
}

// spec is BENCHMARK.json: which workloads exist and which
// metrics a run prints, by name and unit.
type spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

var (
	// nameRE is the metric and workload name grammar: a letter or digit,
	// then letters, digits, '_', '.' and '-', at most 64 in all.
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	// unitRE is the unit grammar.
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s is a legal metric or workload name.
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether s is a legal unit.
func validUnit(s string) bool { return unitRE.MatchString(s) }

// loadSpec reads and validates BENCHMARK.json.
func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// validate checks the name and unit grammar and that every name is used
// once.
func (s *spec) validate() error {
	seen := map[string]bool{}
	use := func(name string) error {
		if !validName(name) {
			return fmt.Errorf("illegal name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
	}
	for _, group := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range group {
			if err := use(m.Name); err != nil {
				return err
			}
			if !validUnit(m.Unit) {
				return fmt.Errorf("metric %s: illegal unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %s: better must be lower or higher", m.Name)
			}
		}
	}
	return nil
}

// hasWorkload reports whether name is a declared workload.
func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
