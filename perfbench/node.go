package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pcbound/internal/core"
	"pcbound/internal/domain"
	"pcbound/internal/sat"
	"pcbound/internal/server"
	"pcbound/internal/wal"
)

// The WAL settings pcserved runs with by default, except the fsync mode:
// "none" keeps the benchmark off the disk's fsync latency, which belongs to
// the host, not the program.
const (
	walWindow       = time.Millisecond
	checkpointEvery = 1024
)

// writeDataDir writes the data directory a node recovers from: a checkpoint
// of the boot spec plus the logged mutation tail. It is untimed input
// preparation; no checkpoint is taken after the tail, so recovery replays it.
func writeDataDir(dir string, in *inputs) error {
	boot, schema, err := core.DecodeSet(in.spec)
	if err != nil {
		return err
	}
	m, err := wal.Open(wal.Options{Dir: dir, Mode: wal.SyncNone, Boot: boot})
	if err != nil {
		return err
	}
	for i, r := range in.tail {
		pc, err := core.PCFromJSON(schema, r.Constraint)
		if err != nil {
			m.Close()
			return fmt.Errorf("tail record %d: %w", i, err)
		}
		if err := boot.Replace(core.PCID(r.ID), pc); err != nil {
			m.Close()
			return fmt.Errorf("tail record %d: %w", i, err)
		}
	}
	if err := m.WaitDurable(boot.Epoch()); err != nil {
		m.Close()
		return err
	}
	return m.Close()
}

// openWAL recovers the data directory with the WAL settings a node uses.
func openWAL(dir string) (*wal.Manager, error) {
	return wal.Open(wal.Options{Dir: dir, Mode: wal.SyncNone, Window: walWindow, CheckpointEvery: checkpointEvery})
}

// parseQueries decodes an op's queries against the schema.
func parseQueries(schema *domain.Schema, o op) ([]core.Query, error) {
	qs := make([]core.Query, len(o.queries))
	for i, qj := range o.queries {
		q, err := core.QueryFromJSON(schema, qj)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	return qs, nil
}

// freshCopy copies a segment's pristine data directory to a fresh
// directory name beside it and returns its path, so every boot recovers
// from the same state.
func freshCopy(dir, name string) (string, error) {
	d := filepath.Join(dir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, copyDir(filepath.Join(dir, "pristine"), d)
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// node is one booted server: the recovered store behind server.Server on a
// loopback listener, and the single client connection that drives it.
type node struct {
	dur    *wal.Manager
	solver *sat.Solver
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	setup  time.Duration
}

// boot starts a node the way pcserved -data-dir does: bind the listener
// behind a recovery gate, recover the store from dir, build the server,
// open the gate, then run the warm-up ops. The whole sequence is set-up
// time. handler, when non-nil, wraps the server's handler (the traced run's
// span around ServeHTTP).
func boot(dir string, warm []op, handler func(http.Handler) http.Handler) (*node, error) {
	start := time.Now()
	gate := &server.RecoveryGate{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{
		hs:     &http.Server{Handler: gate, ReadHeaderTimeout: 5 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		// One closed-loop client over exactly one keep-alive connection.
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}},
	}
	go func() { n.served <- n.hs.Serve(ln) }()
	n.dur, err = openWAL(dir)
	if err != nil {
		n.stop()
		return nil, fmt.Errorf("recovery: %w", err)
	}
	store := n.dur.Store()
	n.solver = sat.New(n.dur.Schema())
	store.Closed(n.solver) // pcserved's boot-time closure check
	n.srv = server.New(store, n.solver, server.Config{Durability: n.dur})
	h := n.srv.Handler()
	if handler != nil {
		h = handler(h)
	}
	gate.Activate(h)
	if _, err := n.get("/healthz"); err != nil {
		n.stop()
		return nil, err
	}
	for i, o := range warm {
		if _, err := n.do(o); err != nil {
			n.stop()
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	n.setup = time.Since(start)
	return n, nil
}

// stop shuts the listener and waits for the serve loop to return, then
// closes the WAL. It returns the first error it meets.
func (n *node) stop() error {
	n.client.CloseIdleConnections()
	err := n.hs.Close()
	if serr := <-n.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if n.dur != nil {
		if cerr := n.dur.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// do sends one op and returns the response body; a non-200 status is an
// error.
func (n *node) do(o op) ([]byte, error) {
	resp, err := n.client.Post(n.base+o.kind.path(), "application/json", bytes.NewReader(o.body))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", o.kind.path(), resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func (n *node) get(path string) ([]byte, error) {
	resp, err := n.client.Get(n.base + path)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// scrape reads the server's /metrics counters, for the cache counters the
// server does not expose otherwise.
func (n *node) scrape() (map[string]float64, error) {
	body, err := n.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

// reply is the part of a response the correctness gate checks.
type reply struct {
	epoch  uint64
	ranges []core.Range
}

func decodeReply(kind opKind, body []byte) (reply, error) {
	switch kind {
	case opBatch:
		var r server.BatchResponse
		err := json.Unmarshal(body, &r)
		rs := make([]core.Range, len(r.Ranges))
		for i, rj := range r.Ranges {
			rs[i] = rj.Range()
		}
		return reply{epoch: r.Epoch, ranges: rs}, err
	case opMutate:
		var r server.MutateResponse
		err := json.Unmarshal(body, &r)
		return reply{epoch: r.Epoch}, err
	default:
		var r server.BoundResponse
		err := json.Unmarshal(body, &r)
		return reply{epoch: r.Epoch, ranges: []core.Range{r.Range.Range()}}, err
	}
}
