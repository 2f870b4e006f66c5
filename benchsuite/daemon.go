package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"smbm/internal/core"
	"smbm/internal/pkt"
	"smbm/internal/policy"
	"smbm/internal/shard"
	"smbm/internal/traffic"
)

// The daemon configuration both daemon workloads run: 16 ports with
// contiguous works 1..16, B = 128, two shards, LWD. Contiguous works
// put every heavy port on shard 1, so this is where sharding costs the
// most.
const (
	daemonShards = 2
	daemonPorts  = 16
	daemonBuffer = 128
	daemonPolicy = "LWD"
)

// Sizes of the daemon workloads.
const (
	streamSlots      = 400_000 // daemon-stream: one trace, ≈9.6 M packets
	streamSlotsShort = 3_000   // at -short sizing
	minStreams       = 3       // timed daemon-stream streams even when -seconds is tiny

	shortSlots        = 200 // daemon-short: slots per stream
	shortTraces       = 16  // distinct traces the streams cycle over
	shortWarmup       = 200 // untimed streams first
	shortSwapEvery    = 100 // a POST /policy before every so many streams
	minShortStreams   = 100 // timed streams even when -seconds is tiny
	shortWarmupSmall  = 20  // the same three at -short sizing
	shortSwapSmall    = 10
	minShortStreamsSm = 30

	maxStreamFailures = 50 // stop a workload's loop after this many failures
)

// daemonConfig is the engine configuration smbsimd runs under
// daemonArgs, for the oracle.
func daemonConfig() core.Config {
	return core.Config{
		Model:    core.ModelProcessing,
		Ports:    daemonPorts,
		Buffer:   daemonBuffer,
		MaxLabel: daemonPorts,
		Speedup:  1,
		PortWork: core.ContiguousWorks(daemonPorts),
	}
}

// daemonArgs is smbsimd's command line.
func daemonArgs(sock string) []string {
	return []string{
		"-shards", fmt.Sprint(daemonShards), "-ports", fmt.Sprint(daemonPorts), "-k", fmt.Sprint(daemonPorts),
		"-buffer", fmt.Sprint(daemonBuffer), "-works", "contiguous", "-policy", daemonPolicy,
		"-listen", "unix:" + sock, "-http", "127.0.0.1:0",
	}
}

// genTrace generates the daemon trace of one seed in the traffic binary
// framing, byte-identical to `tracegen -binary -ports 16 -slots N -seed
// S`, streaming from the generator so the packets are never held as a
// materialized trace. The returned timing covers generation only.
func genTrace(seed int64, slots int) ([]byte, timing, error) {
	cfg := traffic.MMPPConfig{
		Sources:      100,
		POnOff:       0.1,
		POffOn:       0.01,
		Label:        traffic.LabelWorkByPort,
		Ports:        daemonPorts,
		MaxLabel:     daemonPorts,
		PortWork:     core.ContiguousWorks(daemonPorts),
		PortAffinity: true,
		Seed:         seed,
	}
	cfg.LambdaOn = cfg.LambdaForRate(1.5 * daemonPorts)
	var t timing
	g, err := traffic.NewMMPP(cfg)
	if err != nil {
		return nil, t, err
	}
	payload, err := encodeStream(slots, int(cfg.MeanRate()*1.1)+1, func() []pkt.Packet {
		t0 := nanotime()
		b := g.Next()
		t.add(nanotime()-t0, len(b))
		return b
	})
	return payload, t, err
}

// encodeStream renders slots bursts in the traffic binary framing
// ("SMBT1\n", a little-endian uint32 slot count, then one 8-byte record
// per packet). perSlot sizes the buffer up front.
func encodeStream(slots, perSlot int, next func() []pkt.Packet) ([]byte, error) {
	buf := make([]byte, 0, 10+8*slots*perSlot)
	buf = append(buf, "SMBT1\n"...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(slots))
	for t := 0; t < slots; t++ {
		for _, p := range next() {
			if p.Port < 0 || p.Port > 0xFFFF || p.Work < 0 || p.Work > 0xFF || p.Value < 0 || p.Value > 0xFF {
				return nil, fmt.Errorf("packet %+v exceeds the binary format's field widths", p)
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(t))
			buf = binary.LittleEndian.AppendUint16(buf, uint16(p.Port))
			buf = append(buf, byte(p.Work), byte(p.Value))
		}
	}
	return buf, nil
}

// encodeProvider renders a provider's whole stream in the binary
// framing.
func encodeProvider(p traffic.Provider) ([]byte, error) {
	cur, err := p.Open()
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	payload, err := encodeStream(p.Slots(), 8, cur.Next)
	if err != nil {
		return nil, err
	}
	return payload, cur.Err()
}

// payloadSlots reads the slot count from a payload's header.
func payloadSlots(payload []byte) int {
	return int(binary.LittleEndian.Uint32(payload[6:10]))
}

// daemonProc is one running smbsimd.
type daemonProc struct {
	cmd      *exec.Cmd
	sock     string // stream socket, relative to the working directory
	addr     string // admin HTTP host:port
	client   *http.Client
	readDone chan struct{} // closed once stdout reaches EOF
	stderr   bytes.Buffer
}

// sockSeq keeps socket names unique within one benchmark process.
var sockSeq atomic.Int64

// startDaemon launches smbsimd and waits until it is ready: /healthz
// answers 200 and the stream socket accepts a connection. It returns
// the time from exec to ready.
func startDaemon(ctx context.Context, c *config) (*daemonProc, float64, error) {
	// A relative path keeps the socket name under the unix-socket length
	// limit however deep the checkout is.
	sock := filepath.Join(c.workdir, "run", fmt.Sprintf("smbsimd-%d-%d.sock", os.Getpid(), sockSeq.Add(1)))
	cmd := exec.Command(filepath.Join(c.bin, "smbsimd"), daemonArgs(sock)...)
	cmd.Env = childEnv()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemonProc{cmd: cmd, sock: sock, client: &http.Client{Timeout: 10 * time.Second}, readDone: make(chan struct{})}
	cmd.Stderr = &d.stderr
	addrCh := make(chan string, 1)
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		defer close(d.readDone)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "smbsimd: http listening on "); ok {
				select {
				case addrCh <- a:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stdout) // the final snapshot may outgrow a scanner line
	}()
	select {
	case d.addr = <-addrCh:
	case <-d.readDone:
		_, err := d.stop()
		return nil, 0, fmt.Errorf("smbsimd exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, 0, errors.New("smbsimd did not report its admin address within 30s")
	case <-ctx.Done():
		d.kill()
		return nil, 0, ctx.Err()
	}
	if err := d.waitReady(ctx); err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, time.Since(t0).Seconds(), nil
}

// waitReady polls /healthz until it answers 200, then dials the stream
// socket once.
func (d *daemonProc) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.client.Get("http://" + d.addr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("smbsimd /healthz not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	conn, err := net.DialTimeout("unix", d.sock, 10*time.Second)
	if err != nil {
		return fmt.Errorf("smbsimd stream socket: %w", err)
	}
	return conn.Close()
}

// stop sends SIGTERM, waits for the graceful drain and exit, and
// returns the daemon's resource usage.
func (d *daemonProc) stop() (*syscall.Rusage, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already exited daemon is reported by Wait
	select {
	case <-d.readDone:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.readDone
	}
	err := d.cmd.Wait()
	d.client.CloseIdleConnections()
	var ru *syscall.Rusage
	if ps := d.cmd.ProcessState; ps != nil {
		ru, _ = ps.SysUsage().(*syscall.Rusage)
	}
	if err != nil {
		return ru, fmt.Errorf("smbsimd: %v: %s", err, lastLine(d.stderr.String()))
	}
	return ru, nil
}

// kill stops the daemon without a graceful drain; for error paths.
func (d *daemonProc) kill() {
	_ = d.cmd.Process.Kill()
	<-d.readDone
	_ = d.cmd.Wait()
	d.client.CloseIdleConnections()
}

// launchDaemons measures setup_s over setupLaunches launches and keeps
// the last daemon running for the measurement.
func launchDaemons(ctx context.Context, c *config, o *outcome) (*daemonProc, error) {
	var setup []float64
	var d *daemonProc
	for i := 0; i < setupLaunches; i++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return nil, err
			}
		}
		var s float64
		var err error
		if d, s, err = startDaemon(ctx, c); err != nil {
			return nil, fmt.Errorf("set-up launch: %w", err)
		}
		setup = append(setup, s)
	}
	o.setMedian("setup_s", "s", setup)
	return d, nil
}

// streamResponse is smbsimd's JSON answer to one stream.
type streamResponse struct {
	Policy         string         `json:"policy"`
	Shards         int            `json:"shards"`
	RequestedSlots int            `json:"requested_slots"`
	ProcessedSlots int            `json:"processed_slots"`
	Aborted        bool           `json:"aborted"`
	Error          string         `json:"error"`
	Results        []shard.Result `json:"results"`
}

// streamTimes is the client clock of one stream.
type streamTimes struct {
	dial   time.Duration // dial start → connected
	write  time.Duration // first byte written → last byte accepted by the socket
	finish time.Duration // last byte written → response parsed
	bytes  int           // response size
}

// total is dial start → response parsed.
func (st streamTimes) total() time.Duration { return st.dial + st.write + st.finish }

// sendStream sends one payload on a fresh connection, half-closes it,
// and parses the daemon's answer. The client waits for each reply, so
// socket back-pressure throttles it: the load is closed-loop.
func sendStream(sock string, payload []byte) (streamResponse, streamTimes, error) {
	var resp streamResponse
	var st streamTimes
	t0 := time.Now()
	conn, err := net.DialTimeout("unix", sock, 10*time.Second)
	if err != nil {
		return resp, st, fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(2 * time.Minute)); err != nil {
		return resp, st, err
	}
	t1 := time.Now()
	if _, err := conn.Write(payload); err != nil {
		return resp, st, fmt.Errorf("write: %w", err)
	}
	if err := conn.(*net.UnixConn).CloseWrite(); err != nil {
		return resp, st, fmt.Errorf("half-close: %w", err)
	}
	t2 := time.Now()
	body, err := io.ReadAll(conn)
	if err != nil {
		return resp, st, fmt.Errorf("read response: %w", err)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return resp, st, fmt.Errorf("parse response: %w", err)
	}
	t3 := time.Now()
	return resp, streamTimes{dial: t1.Sub(t0), write: t2.Sub(t1), finish: t3.Sub(t2), bytes: len(body)}, nil
}

// completed reports whether a stream ran to its end, so its timing
// describes the daemon even if its results then fail the oracle check.
func completed(resp streamResponse, err error) bool {
	return err == nil && resp.Error == "" && !resp.Aborted
}

// verifyStream checks one response against the oracle: a complete,
// unaborted stream under the expected policy whose every shard result
// is bit-identical to the oracle's.
func verifyStream(resp streamResponse, pol string, slots int, want []shard.Result) error {
	switch {
	case resp.Error != "":
		return fmt.Errorf("smbsimd: %s", resp.Error)
	case resp.Aborted || resp.ProcessedSlots != slots || resp.RequestedSlots != slots:
		return fmt.Errorf("stream cut: %d of %d slots processed", resp.ProcessedSlots, slots)
	case resp.Policy != pol:
		return fmt.Errorf("stream ran under %s, want %s", resp.Policy, pol)
	}
	return diffResults(resp.Results, want)
}

// memStats is the part of smbsimd's /debug/vars memstats the suite
// reads.
type memStats struct {
	Mallocs uint64 `json:"Mallocs"`
	NumGC   uint32 `json:"NumGC"`
}

// scrapeMemStats reads the daemon's runtime counters from expvar.
func (d *daemonProc) scrapeMemStats() (memStats, error) {
	var v struct {
		MemStats memStats `json:"memstats"`
	}
	resp, err := d.client.Get("http://" + d.addr + "/debug/vars")
	if err != nil {
		return v.MemStats, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v.MemStats, fmt.Errorf("/debug/vars: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&v)
	return v.MemStats, err
}

// swapPolicy switches the daemon's live policy between streams.
func (d *daemonProc) swapPolicy(name string) error {
	resp, err := d.client.Post("http://"+d.addr+"/policy?name="+name, "text/plain", nil)
	if err != nil {
		return fmt.Errorf("policy swap: %w", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body) // only for the error message
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("policy swap to %s: %s: %s", name, resp.Status, strings.TrimSpace(string(body)))
	}
	return nil
}

// peakRSS records the live daemon's own peak resident set (VmHWM). Its
// rusage Maxrss would not do: that starts from the benchmark's peak,
// which the vfork-style start carries into the child.
func (d *daemonProc) peakRSS(o *outcome) error {
	path := fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid)
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			o.set("peak_rss_mb", "MB", kb/1024)
			return nil
		}
	}
	return fmt.Errorf("%s: no VmHWM line", path)
}

// finishDaemon scrapes the runtime counters, stops the daemon, and
// records peak RSS plus the daemon-side cost per operation; ops is
// every operation the daemon served, warm-up included.
func finishDaemon(d *daemonProc, o *outcome, ops float64) error {
	ms, err := d.scrapeMemStats()
	if err == nil {
		err = d.peakRSS(o)
	}
	if err != nil {
		d.kill()
		return err
	}
	ru, err := d.stop()
	if err != nil {
		return err
	}
	o.set("proc.cpu_ns_per_op", "ns", float64(ru.Utime.Nano()+ru.Stime.Nano())/ops)
	o.set("go.mallocs_per_op", "count", float64(ms.Mallocs)/ops)
	o.set("go.gc_per_op", "count", float64(ms.NumGC)/ops)
	return nil
}

// lwd builds the daemon's policy for the oracle.
func lwd() core.Policy { return policy.ByName(daemonPolicy) }

// runDaemonStream measures per-packet cost on the live path: one long
// trace streamed as fast as the socket accepts it, one warm-up stream
// then timed streams until the measuring time is spent.
func runDaemonStream(ctx context.Context, c *config) (*outcome, error) {
	slots := streamSlots
	if c.short {
		slots = streamSlotsShort
	}
	o := newOutcome("daemon-stream", c.seed)
	payload, gen, err := genTrace(c.seed, slots)
	if err != nil {
		return nil, err
	}
	cfg := daemonConfig()
	oracle, err := replayShards(cfg, daemonShards, lwd, payload, false, true)
	if err != nil {
		return nil, err
	}
	d, err := launchDaemons(ctx, c, o)
	if err != nil {
		return nil, err
	}
	one := func() (streamTimes, bool) {
		resp, st, err := sendStream(d.sock, payload)
		complete := completed(resp, err)
		if err == nil {
			err = verifyStream(resp, daemonPolicy, slots, oracle.results)
		}
		o.check(1, err)
		return st, complete
	}
	one() // warm-up
	var rates, ms, blocked, finish []float64
	start := time.Now()
	for n := 0; (n < minStreams || time.Since(start).Seconds() < c.seconds) && o.failed < maxStreamFailures; n++ {
		if ctx.Err() != nil {
			d.kill()
			return nil, ctx.Err()
		}
		st, ok := one()
		if !ok {
			continue
		}
		rates = append(rates, float64(oracle.packets)/(st.write+st.finish).Seconds())
		ms = append(ms, float64(st.total())/1e6)
		blocked = append(blocked, float64(st.write)/float64(st.write+st.finish))
		finish = append(finish, float64(st.finish)/1e6)
	}
	if err := finishDaemon(d, o, float64(oracle.packets)*float64(o.attempted)); err != nil {
		return nil, err
	}
	if len(rates) == 0 {
		return nil, errors.New("no stream succeeded: " + strings.Join(o.failures, "; "))
	}
	o.setMedian("throughput", "1/s", rates)
	o.setMedian("latency_p50_ms", "ms", ms)
	o.setQuantile("latency_p99_ms", "ms", ms, 0.99)
	o.setMedian("smbsimd.write_blocked_frac", "ratio", blocked)
	o.setMedian("smbsimd.finish_ms", "ms", finish)
	o.set("traffic.gen_ns_per_pkt", "ns", gen.perItem())
	if !c.trace {
		return o, nil
	}
	o.spans.addHist("traffic.gen_ns_per_slot", &gen.h)
	dr, err := driveLayers(ctx, cfg, lwd, [][]byte{payload}, o.spans)
	if err != nil {
		return nil, err
	}
	dr.publish(o)
	dr.publishPath(o)
	return o, nil
}

// runDaemonShort measures the per-stream fixed cost: many 200-slot
// streams, each on a fresh connection, cycling over 16 seeded traces,
// with a live policy swap (LWD ↔ LQD) before every hundredth stream.
func runDaemonShort(ctx context.Context, c *config) (*outcome, error) {
	warmup, swapEvery, minTimed := shortWarmup, shortSwapEvery, minShortStreams
	if c.short {
		warmup, swapEvery, minTimed = shortWarmupSmall, shortSwapSmall, minShortStreamsSm
	}
	o := newOutcome("daemon-short", c.seed)
	cfg := daemonConfig()
	policies := []string{daemonPolicy, "LQD"}
	payloads := make([][]byte, shortTraces)
	var gen timing
	for i := range payloads {
		var t timing
		var err error
		if payloads[i], t, err = genTrace(c.seed*1000+int64(i), shortSlots); err != nil {
			return nil, err
		}
		gen.merge(&t)
	}
	want := make([][][]shard.Result, len(policies))
	for pi, name := range policies {
		factory := func() core.Policy { return policy.ByName(name) }
		for _, p := range payloads {
			r, err := replayShards(cfg, daemonShards, factory, p, false, true)
			if err != nil {
				return nil, err
			}
			want[pi] = append(want[pi], r.results)
		}
	}
	d, err := launchDaemons(ctx, c, o)
	if err != nil {
		return nil, err
	}
	active, streams := 0, 0
	var lat, dial, finish, respBytes, swaps []float64
	one := func(timed bool) {
		if streams > 0 && streams%swapEvery == 0 {
			next := 1 - active
			t0 := time.Now()
			err := d.swapPolicy(policies[next])
			o.check(1, err)
			if err == nil {
				active = next
				swaps = append(swaps, float64(time.Since(t0))/1e6)
			}
		}
		i := streams % len(payloads)
		streams++
		resp, st, err := sendStream(d.sock, payloads[i])
		complete := completed(resp, err)
		if err == nil {
			err = verifyStream(resp, policies[active], shortSlots, want[active][i])
		}
		o.check(1, err)
		if timed && complete {
			lat = append(lat, float64(st.total())/1e6)
			dial = append(dial, float64(st.dial)/1e6)
			finish = append(finish, float64(st.finish)/1e6)
			respBytes = append(respBytes, float64(st.bytes))
		}
	}
	for streams < warmup && o.failed < maxStreamFailures {
		one(false)
	}
	// The timed phase is cut into windows of swapEvery streams, each
	// opened by its policy swap. Throughput is the median window rate, so
	// a slow spell of the machine inside a run moves it less than a mean
	// over the whole phase would.
	var rates, winLat []float64
	start := time.Now()
	winStart, winFrom := start, len(lat)
	for timed := 0; (timed < minTimed || time.Since(start).Seconds() < c.seconds) && o.failed < maxStreamFailures; timed++ {
		if ctx.Err() != nil {
			d.kill()
			return nil, ctx.Err()
		}
		one(true)
		if streams%swapEvery == 0 {
			rates = append(rates, float64(swapEvery)/time.Since(winStart).Seconds())
			if len(lat) > winFrom {
				winLat = append(winLat, median(lat[winFrom:]))
			}
			winStart, winFrom = time.Now(), len(lat)
		}
	}
	if err := finishDaemon(d, o, float64(streams)); err != nil {
		return nil, err
	}
	if len(lat) == 0 || len(rates) == 0 {
		return nil, errors.New("no stream window succeeded: " + strings.Join(o.failures, "; "))
	}
	o.setMedian("throughput", "1/s", rates)
	o.metrics["latency_p50_ms"] = metric{Value: median(lat), Unit: "ms", N: len(lat), Samples: winLat}
	o.setQuantile("latency_p99_ms", "ms", lat, 0.99)
	o.setQuantile("smbsimd.dial_ms", "ms", dial, 0.5)
	o.setQuantile("smbsimd.finish_ms", "ms", finish, 0.5)
	o.setQuantile("smbsimd.response_bytes", "bytes", respBytes, 0.5)
	if len(swaps) > 0 {
		o.setQuantile("smbsimd.policy_swap_ms", "ms", swaps, 0.5)
	}
	o.set("traffic.gen_ns_per_pkt", "ns", gen.perItem())
	if !c.trace {
		return o, nil
	}
	o.spans.addHist("traffic.gen_ns_per_slot", &gen.h)
	dr, err := driveLayers(ctx, cfg, lwd, payloads, o.spans)
	if err != nil {
		return nil, err
	}
	dr.publish(o)
	dr.publishPath(o)
	return o, nil
}
