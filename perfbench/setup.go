package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"highorder/internal/clock"
	"highorder/internal/compiled"
	"highorder/internal/core"
	"highorder/internal/dataio"
	"highorder/internal/gate"
	"highorder/internal/serve"
)

// stageTimes are the set-up stages, each timed around one layer call.
type stageTimes struct {
	build, roundtrip, compile, boot time.Duration
}

func (s stageTimes) total() time.Duration { return s.build + s.roundtrip + s.compile + s.boot }

// httpEndpoint is one in-process HTTP server on a loopback listener.
type httpEndpoint struct {
	hs   *http.Server
	url  string
	done chan error
}

// listen serves h on a fresh loopback port until shutdown.
func listen(h http.Handler) (*httpEndpoint, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &httpEndpoint{hs: &http.Server{Handler: h}, url: "http://" + l.Addr().String(), done: make(chan error, 1)}
	go func() { e.done <- e.hs.Serve(l) }()
	return e, nil
}

// shutdown stops accepting, drains in-flight requests, and waits for the
// serve goroutine to return.
func (e *httpEndpoint) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// replica is one homserve instance and its listener.
type replica struct {
	srv *serve.Server
	ep  *httpEndpoint
}

// system is everything a run boots: the model, the replicas and, on the
// fleet workload, the gate in front of them.
type system struct {
	// built is the model as core.Build returned it; the offline twin runs
	// on it, so a lossy dataio round trip would show as an oracle mismatch.
	built *core.Model
	// served is the model after the dataio round trip.
	served   *core.Model
	replicas []*replica
	gateEP   *httpEndpoint
	// base is the URL the load generator targets.
	base string
	dirs []string
}

// setup builds the model from the workload's history (with the
// workload's fixed build seed), round-trips it
// through dataio, compiles it, and boots the servers (and the gate),
// timing each stage. tag names the replicas' spill directories under
// runDir; wrap wraps each handler before it is served.
func setup(clk clock.Clock, w *workload, in *inputs, runDir, tag string, wrap handlerWrapper) (*system, stageTimes, error) {
	var st stageTimes
	sys := &system{}
	t := clk()
	opts := core.DefaultOptions()
	opts.Seed = worldSeed
	m, err := core.Build(in.history, opts)
	if err != nil {
		return nil, st, fmt.Errorf("build: %w", err)
	}
	sys.built = m
	st.build = clk.Since(t)

	t = clk()
	var buf bytes.Buffer
	if err := dataio.WriteModel(&buf, m); err != nil {
		return nil, st, fmt.Errorf("write model: %w", err)
	}
	if sys.served, err = dataio.ReadModel(&buf, io.Discard); err != nil {
		return nil, st, fmt.Errorf("read model: %w", err)
	}
	st.roundtrip = clk.Since(t)

	t = clk()
	if _, err := compiled.Compile(sys.served); err != nil {
		return nil, st, fmt.Errorf("compile: %w", err)
	}
	st.compile = clk.Since(t)

	t = clk()
	if err := sys.boot(w, runDir, tag, wrap); err != nil {
		_ = sys.close()
		return nil, st, err
	}
	st.boot = clk.Since(t)
	return sys, st, nil
}

// boot starts the replicas and, for a fleet, the gate, and joins them.
func (sys *system) boot(w *workload, runDir, tag string, wrap handlerWrapper) error {
	n := 1
	if w.fleet {
		n = w.replicas
	}
	for i := 0; i < n; i++ {
		opts := serve.Options{}
		if w.fleet {
			dir := filepath.Join(runDir, fmt.Sprintf("%s-r%d", tag, i))
			sys.dirs = append(sys.dirs, dir)
			opts.Tier = serve.TierOptions{SpillDir: dir, HotSessions: w.hotPerReplica, WAL: true}
		}
		srv, err := serve.NewTiered(sys.served, opts)
		if err != nil {
			return fmt.Errorf("boot replica %d: %w", i, err)
		}
		srv.Start()
		ep, err := listen(wrap(spanReplica, srv.Handler()))
		if err != nil {
			srv.Close()
			return err
		}
		sys.replicas = append(sys.replicas, &replica{srv: srv, ep: ep})
	}
	sys.base = sys.replicas[0].ep.url
	if !w.fleet {
		return nil
	}
	g := gate.New(gate.Config{})
	for i, r := range sys.replicas {
		if err := g.Join(fmt.Sprintf("r%d", i), r.ep.url); err != nil {
			return fmt.Errorf("join replica %d: %w", i, err)
		}
	}
	ep, err := listen(wrap(spanGate, g.Handler()))
	if err != nil {
		return err
	}
	sys.gateEP = ep
	sys.base = ep.url
	return nil
}

// close stops the gate, then the replicas (each checkpoints its store),
// and removes their spill directories.
func (sys *system) close() error {
	var errs []error
	if sys.gateEP != nil {
		errs = append(errs, sys.gateEP.shutdown())
	}
	for _, r := range sys.replicas {
		errs = append(errs, r.ep.shutdown())
		r.srv.Close()
	}
	for _, d := range sys.dirs {
		errs = append(errs, os.RemoveAll(d))
	}
	return errors.Join(errs...)
}

// replicaURLs lists the replicas' base URLs, for scraping /metrics.
func (sys *system) replicaURLs() []string {
	out := make([]string, len(sys.replicas))
	for i, r := range sys.replicas {
		out[i] = r.ep.url
	}
	return out
}
