// Command smbsimd is the long-running sharded switch daemon: N shards,
// each owning a contiguous partition of the output ports and stepping
// a private deterministic core.Switch behind a lock-free SPSC ingress
// ring (see internal/shard). Clients stream arrivals over a unix or
// TCP socket in the traffic binary framing ("SMBT1\n"); the daemon
// makes admission decisions under a live-switchable policy from the
// roster and answers each stream with the bit-exact per-shard results.
//
// The deterministic engine is the daemon's differential oracle: each
// shard's Stats, per-port counters and obs slab are bit-identical to a
// single-threaded sim.RunTrace replay of the shard's traffic
// partition.
//
// Usage:
//
//	smbsimd -listen unix:/tmp/smbsimd.sock            # serve streams
//	smbsimd -listen tcp:127.0.0.1:9090 -shards 4
//	smbsimd -http 127.0.0.1:0                         # expvar, pprof, admin
//
// The admin server (standard library mux) exposes /debug/vars (expvar,
// including "smbsimd" live counters), /debug/pprof, GET /results (the
// last stream's bit-exact results), GET /policy and POST
// /policy?name=NAME (live policy swap between streams), and
// GET /healthz.
//
// SIGTERM and SIGINT shut down gracefully: the active stream (if any)
// is cut at its last complete slot, every shard drains its ring and
// buffer, the final obs snapshot is flushed to -snapshot (default
// stdout), and the process exits 0.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"smbm/internal/core"
	"smbm/internal/obs"
	"smbm/internal/pkt"
	"smbm/internal/policy"
	"smbm/internal/shard"
	"smbm/internal/traffic"
)

// streamBufSize is the daemon's socket read buffer: large enough that
// reading a long stream costs few read calls per packet.
const streamBufSize = 64 << 10

// exitFailure is the only non-zero exit code: configuration or runtime
// failure. Graceful signal shutdown exits 0.
const exitFailure = 1

// parseModel maps the -model flag to the engine's model enum.
func parseModel(s string) (core.Model, error) {
	switch s {
	case "proc", "processing":
		return core.ModelProcessing, nil
	case "value":
		return core.ModelValue, nil
	}
	return 0, fmt.Errorf("unknown model %q (want proc or value)", s)
}

// parseWorks maps the -works flag to a PortWork configuration: "" for
// unit work, "contiguous" for 1..k (requires ports == k), "uniform:W"
// for W on every port, or a comma-separated list of length ports.
func parseWorks(s string, ports, maxLabel int) ([]int, error) {
	switch {
	case s == "":
		return nil, nil
	case s == "contiguous":
		if ports != maxLabel {
			return nil, fmt.Errorf("-works contiguous needs ports == k, got %d != %d", ports, maxLabel)
		}
		return core.ContiguousWorks(maxLabel), nil
	case strings.HasPrefix(s, "uniform:"):
		w, err := strconv.Atoi(strings.TrimPrefix(s, "uniform:"))
		if err != nil {
			return nil, fmt.Errorf("-works %q: %v", s, err)
		}
		return core.UniformWorks(ports, w), nil
	}
	fields := strings.Split(s, ",")
	if len(fields) != ports {
		return nil, fmt.Errorf("-works lists %d ports, config has %d", len(fields), ports)
	}
	works := make([]int, len(fields))
	for i, f := range fields {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("-works %q: %v", s, err)
		}
		works[i] = w
	}
	return works, nil
}

// lookupPolicy resolves a roster policy by name within a model. The
// returned factory builds a fresh instance per shard.
func lookupPolicy(model core.Model, name string) (func() core.Policy, error) {
	byName := policy.ByName
	if model == core.ModelValue {
		byName = policy.ValueByName
	}
	if byName(name) == nil {
		return nil, fmt.Errorf("no %s-model policy named %q", model, name)
	}
	return func() core.Policy { return byName(name) }, nil
}

// splitListen parses a -listen spec "unix:/path" or "tcp:host:port".
func splitListen(spec string) (network, addr string, err error) {
	switch {
	case strings.HasPrefix(spec, "unix:"):
		return "unix", strings.TrimPrefix(spec, "unix:"), nil
	case strings.HasPrefix(spec, "tcp:"):
		return "tcp", strings.TrimPrefix(spec, "tcp:"), nil
	}
	return "", "", fmt.Errorf("bad -listen %q (want unix:/path or tcp:host:port)", spec)
}

func main() {
	var (
		model    = flag.String("model", "proc", "switch model: proc or value")
		ports    = flag.Int("ports", 16, "output ports n")
		buffer   = flag.Int("buffer", 64, "shared buffer size B (>= ports)")
		maxLabel = flag.Int("k", 4, "per-packet work/value bound k (<= 255)")
		speedup  = flag.Int("speedup", 1, "cores per output queue C")
		works    = flag.String("works", "", `per-port work: "" (unit), "contiguous", "uniform:W", or a comma list`)
		polName  = flag.String("policy", "LQD", "admission policy name from the model's roster")
		shardsN  = flag.Int("shards", 1, "switch shards (each owns a contiguous port partition)")
		listen   = flag.String("listen", "", `stream listener, "unix:/path" or "tcp:host:port"`)
		httpAddr = flag.String("http", "", `admin/debug address for expvar, pprof, /policy, /results (e.g. "127.0.0.1:6060")`)
		snapshot = flag.String("snapshot", "", "write the final obs snapshot JSON here on shutdown (default stdout)")
	)
	// A bad flag exits exitFailure, not flag's default 2; -h still
	// exits 0.
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(exitFailure)
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "smbsimd:", err)
		os.Exit(exitFailure)
	}

	m, err := parseModel(*model)
	if err != nil {
		fail(err)
	}
	// parseWorks sizes the work table by -ports, so refuse a port count
	// it cannot size before core.Config.Validate gets to see it. With
	// -ports positive, -works contiguous's ports == k check covers -k.
	if *ports <= 0 {
		fail(fmt.Errorf("-ports %d is not positive", *ports))
	}
	pw, err := parseWorks(*works, *ports, *maxLabel)
	if err != nil {
		fail(err)
	}
	cfg := core.Config{
		Model:    m,
		Ports:    *ports,
		Buffer:   *buffer,
		MaxLabel: *maxLabel,
		Speedup:  *speedup,
		PortWork: pw,
	}
	factory, err := lookupPolicy(m, *polName)
	if err != nil {
		fail(err)
	}

	if *listen == "" {
		fail(errors.New("need -listen"))
	}
	network, addr, err := splitListen(*listen)
	if err != nil {
		fail(err)
	}

	rt, err := shard.NewRuntime(cfg, *shardsN, factory, shard.Options{})
	if err != nil {
		fail(err)
	}
	d := &daemon{rt: rt, policyModel: m, in: bufio.NewReaderSize(nil, streamBufSize)}
	d.policyName.Store(polName)
	rt.Start()

	expvar.Publish("smbsimd", expvar.Func(d.expvars))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if network == "unix" {
		// A stale socket file from a previous run would fail the bind.
		os.Remove(addr)
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("smbsimd: listening on %s:%s shards=%d policy=%s\n", network, ln.Addr().String(), rt.Shards(), *polName)

	if *httpAddr != "" {
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fail(err)
		}
		http.HandleFunc("/healthz", d.handleHealthz)
		http.HandleFunc("/results", d.handleResults)
		http.HandleFunc("/policy", d.handlePolicy)
		fmt.Printf("smbsimd: http listening on %s\n", hln.Addr().String())
		go func() {
			if err := http.Serve(hln, nil); err != nil {
				// The listener closes during shutdown; that is not a
				// failure worth reporting.
				_ = err
			}
		}()
		defer hln.Close()
	}

	// The accept loop runs in its own goroutine so the main goroutine
	// can own the shutdown sequence.
	go d.serve(ctx, ln)

	<-ctx.Done()
	stop() // restore default signal behaviour for a second signal
	fmt.Println("smbsimd: shutting down")
	ln.Close()
	d.shutdown()
	if network == "unix" {
		os.Remove(addr)
	}
	if err := d.writeSnapshot(*snapshot); err != nil {
		fail(err)
	}
}

// daemon ties the shard runtime to its socket and admin surfaces.
type daemon struct {
	rt          *shard.Runtime
	policyModel core.Model
	// policyName is the active roster policy, readable from admin
	// handlers while a stream runs.
	policyName atomic.Pointer[string]
	// streamMu serializes streams: one client at a time drives the
	// runtime's producer side. It also serializes shutdown against an
	// active stream.
	streamMu sync.Mutex
	// in and burst are the stream loop's socket reader and slot buffer,
	// reused across streams; guarded by streamMu.
	in    *bufio.Reader
	burst []pkt.Packet
	// lastMu guards lastResponse, the bit-exact outcome of the most
	// recently finished (or aborted) stream, served at /results.
	lastMu       sync.Mutex
	lastResponse *streamResponse
}

// streamResponse is the JSON answer to one arrival stream, and the
// payload served at /results.
type streamResponse struct {
	// Policy is the roster policy the stream ran under.
	Policy string `json:"policy"`
	// Shards is the shard count.
	Shards int `json:"shards"`
	// RequestedSlots is the slot count announced in the stream header.
	RequestedSlots int `json:"requested_slots"`
	// ProcessedSlots counts the complete slots actually ingested; it
	// falls short of RequestedSlots when the client disconnected
	// mid-stream or shutdown interrupted the stream.
	ProcessedSlots int `json:"processed_slots"`
	// Aborted reports a mid-stream cut (disconnect or shutdown). Shard
	// state is still consistent: every shard stepped exactly
	// ProcessedSlots slots and drained.
	Aborted bool `json:"aborted"`
	// Error carries the abort cause, "" on success.
	Error string `json:"error,omitempty"`
	// Results are the bit-exact per-shard outcomes; each is
	// reproducible by a single-threaded replay of the shard's traffic
	// partition.
	Results []shard.Result `json:"results"`
}

// serve accepts and handles one stream connection at a time until the
// listener closes.
func (d *daemon) serve(ctx context.Context, ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		d.handleConn(ctx, conn)
	}
}

// handleConn ingests one arrival stream and answers with the bit-exact
// results. A mid-stream failure (client disconnect, malformed frame,
// shutdown) cuts the stream at its last complete slot: the shards
// still drain and publish consistent results, retrievable at /results.
func (d *daemon) handleConn(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	d.streamMu.Lock()
	defer d.streamMu.Unlock()
	if ctx.Err() != nil {
		return
	}

	// The cursor reads the traffic binary framing ("SMBT1\n" magic,
	// slot-count header, 8-byte records) through the reused reader. It
	// fails mid-stream if the client disconnects or sends a malformed
	// record, which the loop below turns into a clean cut at the last
	// complete slot.
	d.in.Reset(conn)
	cur, slots, err := traffic.OpenBinary(d.in)
	if err != nil {
		fmt.Fprintf(conn, `{"error":%q}`+"\n", err.Error())
		return
	}
	defer cur.Close()

	if err := d.rt.BeginStream(); err != nil {
		fmt.Fprintf(conn, `{"error":%q}`+"\n", err.Error())
		return
	}
	processed := 0
	var abortErr error
	for t := 0; t < slots; t++ {
		if ctx.Err() != nil {
			abortErr = ctx.Err()
			break
		}
		d.burst = cur.AppendNext(d.burst[:0])
		if err := cur.Err(); err != nil {
			abortErr = err
			break
		}
		if err := d.rt.IngestSlot(int64(t), d.burst); err != nil {
			abortErr = err
			break
		}
		processed++
	}
	if abortErr == nil {
		// The in-loop check runs right after every read, so a non-nil
		// sticky error here is unreachable; the check closes the
		// cursor contract anyway.
		abortErr = cur.Err()
	}
	results, ferr := d.rt.Finish(int64(processed))
	if abortErr == nil {
		abortErr = ferr
	}

	resp := &streamResponse{
		Policy:         *d.policyName.Load(),
		Shards:         d.rt.Shards(),
		RequestedSlots: slots,
		ProcessedSlots: processed,
		Aborted:        processed < slots || abortErr != nil,
		Results:        results,
	}
	if abortErr != nil {
		resp.Error = abortErr.Error()
	}
	d.lastMu.Lock()
	d.lastResponse = resp
	d.lastMu.Unlock()
	// The client may be gone on the abort path; a failed write is fine.
	enc := json.NewEncoder(conn)
	_ = enc.Encode(resp)
}

// shutdown waits out any active stream (the stream loop observes the
// cancelled context and cuts at the next slot boundary), then stops
// the shard goroutines.
func (d *daemon) shutdown() {
	d.streamMu.Lock()
	defer d.streamMu.Unlock()
	d.rt.Stop()
}

// writeSnapshot flushes the final aggregated obs snapshot (all shards,
// global port numbering) to path, or stdout when path is empty.
func (d *daemon) writeSnapshot(path string) error {
	snap := d.obsSnapshot()
	out := os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// obsSnapshot aggregates every shard's latest cut into one snapshot over
// the global port space.
func (d *daemon) obsSnapshot() *obs.Snapshot {
	total := &obs.Snapshot{
		Ports:   d.rt.Config().Ports,
		PerPort: make([]obs.KindCounts, d.rt.Config().Ports),
	}
	for i := 0; i < d.rt.Shards(); i++ {
		part := d.rt.Partition(i)
		c := d.rt.Shard(i).Cut()
		for lp := 0; lp < part.Ports(); lp++ {
			kc := obs.SlabCounts(c.Counts, lp)
			total.PerPort[part.Lo+lp] = kc
			total.Totals.Accumulate(kc)
		}
	}
	return total
}

// expvars renders the daemon's live counters for /debug/vars.
func (d *daemon) expvars() any {
	live := d.rt.LiveTotal()
	return map[string]any{
		"policy":    *d.policyName.Load(),
		"shards":    d.rt.Shards(),
		"streaming": d.rt.Streaming(),
		"live":      live,
	}
}

// handleHealthz answers liveness probes.
func (d *daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleResults serves the last stream's bit-exact results.
func (d *daemon) handleResults(w http.ResponseWriter, r *http.Request) {
	d.lastMu.Lock()
	resp := d.lastResponse
	d.lastMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if resp == nil {
		http.Error(w, `{"error":"no stream finished yet"}`, http.StatusNotFound)
		return
	}
	_ = json.NewEncoder(w).Encode(resp)
}

// handlePolicy reports (GET) or swaps (POST ?name=) the live policy.
// Swaps apply between streams only; a swap during an active stream is
// rejected so every stream's results stay reproducible under exactly
// one policy.
func (d *daemon) handlePolicy(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		fmt.Fprintf(w, `{"policy":%q}`+"\n", *d.policyName.Load())
	case http.MethodPost:
		name := r.URL.Query().Get("name")
		factory, err := lookupPolicy(d.policyModel, name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// The runtime's producer side is single-driver: take the stream
		// lock so the swap cannot race an arriving stream. A held lock
		// means a stream is active - reject rather than block the admin
		// surface behind it.
		if !d.streamMu.TryLock() {
			http.Error(w, "a stream is active; policy swaps apply between streams", http.StatusConflict)
			return
		}
		defer d.streamMu.Unlock()
		if err := d.rt.SetPolicy(factory); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		d.policyName.Store(&name)
		fmt.Fprintf(w, `{"policy":%q}`+"\n", name)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}
