package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"smbm/internal/core"
	"smbm/internal/obs"
	"smbm/internal/pkt"
	"smbm/internal/policy"
	"smbm/internal/shard"
	"smbm/internal/sim"
	"smbm/internal/traffic"
)

// binary builds the smbsimd binary once per test run; the lifecycle
// tests drive the real executable because signal delivery, socket
// teardown and exit codes are process-level behavior.
var binary = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "smbsimd-e2e-")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "smbsimd")
	cmd := exec.Command("go", "build", "-o", path, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", &buildError{out: out, err: err}
	}
	return path, nil
})

// buildError carries the compiler output of a failed test-binary build.
type buildError struct {
	out []byte
	err error
}

func (e *buildError) Error() string { return e.err.Error() + "\n" + string(e.out) }

// e2eConfig is the switch shape every daemon test runs: small enough to
// drop packets (so the oracle differential exercises the policy), big
// enough to spread across shards.
func e2eConfig() core.Config {
	return core.Config{
		Model:    core.ModelProcessing,
		Ports:    8,
		Buffer:   32,
		MaxLabel: 4,
		Speedup:  1,
		PortWork: []int{1, 1, 2, 2, 3, 3, 4, 4},
	}
}

// e2eTrace is a deterministic dense trace: every slot carries exactly
// two packets, so slot boundaries are visible in the record stream and
// byte offsets of the binary framing are exact (header 10 bytes, then
// 16 bytes per slot).
func e2eTrace(cfg core.Config, slots int) traffic.Trace {
	tr := make(traffic.Trace, slots)
	for t := 0; t < slots; t++ {
		a, b := t%cfg.Ports, (t*3)%cfg.Ports
		tr[t] = []pkt.Packet{
			{Port: a, Work: cfg.PortWork[a], Value: 1},
			{Port: b, Work: cfg.PortWork[b], Value: 1},
		}
	}
	return tr
}

// daemonProc wraps a running smbsimd subprocess with its parsed stream
// and admin addresses.
type daemonProc struct {
	cmd        *exec.Cmd
	stdout     *bufio.Reader
	stdoutRest bytes.Buffer
	streamAddr string
	httpAddr   string
}

// startDaemon launches smbsimd with the given extra flags and parses
// the stream and http listen lines off its stdout.
func startDaemon(t *testing.T, snapshotPath string, shards int) *daemonProc {
	t.Helper()
	bin, err := binary()
	if err != nil {
		t.Fatalf("building smbsimd: %v", err)
	}
	cfg := e2eConfig()
	args := []string{
		"-ports", fmt.Sprint(cfg.Ports), "-buffer", fmt.Sprint(cfg.Buffer),
		"-k", fmt.Sprint(cfg.MaxLabel), "-works", "1,1,2,2,3,3,4,4",
		"-policy", "LQD", "-shards", fmt.Sprint(shards),
		"-listen", "tcp:127.0.0.1:0", "-http", "127.0.0.1:0",
		"-snapshot", snapshotPath,
	}
	cmd := exec.Command(bin, args...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting smbsimd: %v", err)
	}
	d := &daemonProc{cmd: cmd, stdout: bufio.NewReader(out)}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	for d.streamAddr == "" || d.httpAddr == "" {
		line, err := d.stdout.ReadString('\n')
		if err != nil {
			t.Fatalf("reading daemon stdout: %v (so far: %q)", err, line)
		}
		switch {
		case strings.HasPrefix(line, "smbsimd: listening on tcp:"):
			fields := strings.Fields(line)
			d.streamAddr = strings.TrimPrefix(fields[3], "tcp:")
		case strings.HasPrefix(line, "smbsimd: http listening on "):
			fields := strings.Fields(line)
			d.httpAddr = fields[len(fields)-1]
		}
	}
	return d
}

// terminate sends SIGTERM and asserts a clean exit-0 shutdown,
// returning the remaining stdout (the shutdown notice; the snapshot
// goes to the -snapshot file).
func (d *daemonProc) terminate(t *testing.T) string {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("sending SIGTERM: %v", err)
	}
	rest, _ := io.ReadAll(d.stdout)
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon exited non-zero after SIGTERM: %v", err)
	}
	return string(rest)
}

// stream writes the trace over one connection in the binary framing,
// half-closes the write side, and decodes the daemon's JSON response.
func (d *daemonProc) stream(t *testing.T, tr traffic.Trace) *streamResponse {
	t.Helper()
	conn, err := net.Dial("tcp", d.streamAddr)
	if err != nil {
		t.Fatalf("dialing daemon: %v", err)
	}
	defer conn.Close()
	if err := tr.WriteBinary(conn); err != nil {
		t.Fatalf("writing trace: %v", err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatalf("half-close: %v", err)
	}
	var resp streamResponse
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return &resp
}

// checkResponseOracle replays each shard's traffic partition through
// the single-threaded harness and requires the daemon's results to be
// bit-identical.
func checkResponseOracle(t *testing.T, resp *streamResponse, tr traffic.Trace, pol func() core.Policy) {
	t.Helper()
	cfg := e2eConfig()
	parts := shard.PartitionPorts(cfg.Ports, resp.Shards)
	if len(resp.Results) != resp.Shards {
		t.Fatalf("response has %d results for %d shards", len(resp.Results), resp.Shards)
	}
	for i, res := range resp.Results {
		scfg := shard.ShardConfig(cfg, parts, i)
		local := shard.FilterTrace(tr, parts[i])
		sw, err := core.New(scfg, pol())
		if err != nil {
			t.Fatalf("oracle switch: %v", err)
		}
		rec := obs.NewRecorder(scfg.Ports, 0)
		sw.SetRecorder(rec)
		stats, err := sim.RunTrace(sw, local, 0)
		if err != nil {
			t.Fatalf("oracle run: %v", err)
		}
		if diff := shard.DiffResult(res, stats, sw.PortCounters(), rec.SaveCounts(nil)); diff != "" {
			t.Fatalf("shard %d oracle differential: %s", i, diff)
		}
	}
}

// adminGet fetches an admin endpoint body.
func (d *daemonProc) adminGet(t *testing.T, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + d.httpAddr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestDaemonStreamPolicySwapSIGTERM covers the daemon lifecycle end to
// end: stream a trace, verify the bit-exact response against the
// oracle, swap the policy over the admin surface, stream again under
// the new policy, then SIGTERM — the daemon must drain, flush a valid
// obs snapshot to the -snapshot file, and exit 0.
func TestDaemonStreamPolicySwapSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test; skipped with -short")
	}
	snap := filepath.Join(t.TempDir(), "final.obs.json")
	d := startDaemon(t, snap, 3)
	tr := e2eTrace(e2eConfig(), 300)

	resp := d.stream(t, tr)
	if resp.Aborted || resp.Error != "" {
		t.Fatalf("stream aborted: %+v", resp)
	}
	if resp.ProcessedSlots != len(tr) || resp.RequestedSlots != len(tr) {
		t.Fatalf("processed %d/%d slots, want %d", resp.ProcessedSlots, resp.RequestedSlots, len(tr))
	}
	if resp.Policy != "LQD" {
		t.Fatalf("policy = %q, want LQD", resp.Policy)
	}
	checkResponseOracle(t, resp, tr, func() core.Policy { return policy.LQD{} })

	// /results serves the same bit-exact outcome.
	code, body := d.adminGet(t, "/results")
	if code != http.StatusOK {
		t.Fatalf("/results = %d: %s", code, body)
	}
	var served streamResponse
	if err := json.Unmarshal([]byte(body), &served); err != nil {
		t.Fatalf("/results JSON: %v", err)
	}
	checkResponseOracle(t, &served, tr, func() core.Policy { return policy.LQD{} })

	// Live policy swap between streams, then a stream under the new
	// policy checks against the new policy's oracle.
	swapResp, err := http.Post("http://"+d.httpAddr+"/policy?name=LWD", "", nil)
	if err != nil {
		t.Fatalf("POST /policy: %v", err)
	}
	swapBody, _ := io.ReadAll(swapResp.Body)
	swapResp.Body.Close()
	if swapResp.StatusCode != http.StatusOK {
		t.Fatalf("POST /policy = %d: %s", swapResp.StatusCode, swapBody)
	}
	if code, body := d.adminGet(t, "/policy"); code != http.StatusOK || !strings.Contains(body, "LWD") {
		t.Fatalf("GET /policy = %d %q after swap", code, body)
	}
	resp2 := d.stream(t, tr)
	if resp2.Aborted || resp2.Policy != "LWD" {
		t.Fatalf("second stream: aborted=%v policy=%q", resp2.Aborted, resp2.Policy)
	}
	checkResponseOracle(t, resp2, tr, func() core.Policy { return policy.LWD{} })

	if code, body := d.adminGet(t, "/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	rest := d.terminate(t)
	if !strings.Contains(rest, "shutting down") {
		t.Fatalf("stdout missing shutdown notice: %q", rest)
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("reading snapshot: %v", err)
	}
	var s obs.Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}
	if s.Ports != e2eConfig().Ports {
		t.Fatalf("snapshot ports = %d", s.Ports)
	}
	// The snapshot reflects the last finished stream: its admit total
	// must equal the sum of the per-shard admit lanes in the response.
	var wantAdmits uint64
	for _, res := range resp2.Results {
		for p := 0; p < len(res.Ports); p++ {
			wantAdmits += res.Counts[p*int(obs.NumKinds)+int(obs.KindAdmit)]
		}
	}
	if s.Totals.Admits != wantAdmits {
		t.Fatalf("snapshot admits = %d, want %d", s.Totals.Admits, wantAdmits)
	}
}

// TestDaemonMidStreamDisconnect cuts the client mid-record: the daemon
// must abort the stream at its last complete slot, publish consistent
// results (bit-identical to the oracle over the processed prefix), and
// keep serving — a follow-up full stream on a fresh connection must
// run clean.
func TestDaemonMidStreamDisconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test; skipped with -short")
	}
	snap := filepath.Join(t.TempDir(), "final.obs.json")
	d := startDaemon(t, snap, 2)
	cfg := e2eConfig()
	tr := e2eTrace(cfg, 50)

	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatalf("encoding trace: %v", err)
	}
	// Header is 10 bytes (6 magic + 4 slot count), each slot is two
	// 8-byte records. Send 10 complete slots plus 3 bytes of slot 10's
	// first record: the cursor fails with an unexpected EOF, and the
	// daemon — which discards the burst of any slot it cannot prove
	// complete — cuts at slot 9's boundary, having processed 9 slots.
	cut := 10 + 10*16 + 3
	conn, err := net.Dial("tcp", d.streamAddr)
	if err != nil {
		t.Fatalf("dialing daemon: %v", err)
	}
	if _, err := conn.Write(buf.Bytes()[:cut]); err != nil {
		t.Fatalf("writing partial stream: %v", err)
	}
	conn.Close()

	// The response went to a closed socket; fetch it from /results.
	var resp streamResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := d.adminGet(t, "/results")
		if code == http.StatusOK {
			if err := json.Unmarshal([]byte(body), &resp); err != nil {
				t.Fatalf("/results JSON: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/results never became available; last = %d %s", code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !resp.Aborted || resp.Error == "" {
		t.Fatalf("disconnected stream not aborted: %+v", resp)
	}
	if resp.RequestedSlots != len(tr) || resp.ProcessedSlots != 9 {
		t.Fatalf("processed %d/%d slots, want 9/%d", resp.ProcessedSlots, resp.RequestedSlots, len(tr))
	}
	checkResponseOracle(t, &resp, tr[:resp.ProcessedSlots], func() core.Policy { return policy.LQD{} })

	// The runtime survived the cut: a full stream still runs clean and
	// matches its oracle from a fresh slate.
	resp2 := d.stream(t, tr)
	if resp2.Aborted || resp2.Error != "" {
		t.Fatalf("post-disconnect stream aborted: %+v", resp2)
	}
	if resp2.ProcessedSlots != len(tr) {
		t.Fatalf("post-disconnect stream processed %d slots", resp2.ProcessedSlots)
	}
	checkResponseOracle(t, resp2, tr, func() core.Policy { return policy.LQD{} })

	d.terminate(t)
}

// TestDaemonInvalidPacketMidSlot streams a trace whose slot k carries an
// out-of-range port in its second record, after a valid first record:
// the daemon must abort with exactly k slots processed on every shard,
// never stepping the valid part of slot k, and answer with results
// bit-identical to the oracle over tr[:k].
func TestDaemonInvalidPacketMidSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test; skipped with -short")
	}
	d := startDaemon(t, filepath.Join(t.TempDir(), "final.obs.json"), 2)
	cfg := e2eConfig()
	tr := e2eTrace(cfg, 40)
	const k = 17

	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatalf("encoding trace: %v", err)
	}
	// Header 10 bytes, 16 bytes per slot; the port is the little-endian
	// uint16 at offset 4 of a record.
	raw := buf.Bytes()
	raw[10+k*16+8+4], raw[10+k*16+8+5] = byte(cfg.Ports), 0
	conn, err := net.Dial("tcp", d.streamAddr)
	if err != nil {
		t.Fatalf("dialing daemon: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write(raw); err != nil {
		t.Fatalf("writing stream: %v", err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatalf("half-close: %v", err)
	}
	var resp streamResponse
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if !resp.Aborted || !strings.Contains(resp.Error, "out of range") {
		t.Fatalf("invalid packet did not abort the stream: %+v", resp)
	}
	if resp.ProcessedSlots != k {
		t.Fatalf("processed %d slots, want %d", resp.ProcessedSlots, k)
	}
	for _, res := range resp.Results {
		if res.Slots != k {
			t.Fatalf("shard %d stepped %d slots, want %d", res.Shard, res.Slots, k)
		}
	}
	checkResponseOracle(t, &resp, tr[:k], func() core.Policy { return policy.LQD{} })
	d.terminate(t)
}

// TestSelftestSmoke runs the in-process loadgen subcommand end to end
// at a small scale: it must report a bit-identical oracle differential
// for both shard counts and exit 0.
func TestSelftestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test; skipped with -short")
	}
	bin, err := binary()
	if err != nil {
		t.Fatalf("building smbsimd: %v", err)
	}
	cmd := exec.Command(bin, "-selftest", "-shards", "4", "-ports", "16", "-buffer", "64",
		"-slots", "2000", "-reps", "1", "-seed", "7")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("selftest failed: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "oracle differential: 1/1 shards bit-identical") ||
		!strings.Contains(s, "oracle differential: 4/4 shards bit-identical") ||
		!strings.Contains(s, "scaling ") {
		t.Fatalf("selftest output missing expected lines:\n%s", s)
	}
}

// liveVars is the part of /debug/vars the live-conservation test reads.
type liveVars struct {
	Smbsimd struct {
		Streaming bool               `json:"streaming"`
		Live      shard.LiveSnapshot `json:"live"`
	} `json:"smbsimd"`
}

// scrapeLive reads smbsimd.live from /debug/vars and fails the test
// unless the aggregated counters close the first two conservation
// identities. Each addend is one shard's consistent cut, so the sums
// close them even mid-stream.
func (d *daemonProc) scrapeLive(t *testing.T) liveVars {
	t.Helper()
	code, body := d.adminGet(t, "/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars = %d: %s", code, body)
	}
	var v liveVars
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("/debug/vars JSON: %v", err)
	}
	l := v.Smbsimd.Live
	if l.Arrived != l.Accepted+l.Dropped || l.Accepted != l.PushedOut+l.Transmitted+l.Occupancy {
		t.Fatalf("live counters break conservation (streaming=%v): %+v", v.Smbsimd.Streaming, l)
	}
	return v
}

// TestDaemonLiveConservationUnderLoad scrapes /debug/vars repeatedly
// while one long stream runs. The first half of the trace is written
// and the test waits until the daemon's published slots show it, so at
// least one scrape lands mid-stream; then it scrapes after each chunk of
// the rest. Every scrape must close the conservation identities,
// and the stream must still match its oracle.
func TestDaemonLiveConservationUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test; skipped with -short")
	}
	const shards = 2
	d := startDaemon(t, filepath.Join(t.TempDir(), "final.obs.json"), shards)
	tr := e2eTrace(e2eConfig(), 60000)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatalf("encoding trace: %v", err)
	}
	half := 10 + len(tr)/2*16

	conn, err := net.Dial("tcp", d.streamAddr)
	if err != nil {
		t.Fatalf("dialing daemon: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write(buf.Bytes()[:half]); err != nil {
		t.Fatalf("writing first half: %v", err)
	}
	// The daemon ingests a slot once it sees the next one's first
	// record, so it can step all but the last slot of the first half.
	want := int64(shards * (len(tr)/2 - 1))
	deadline := time.Now().Add(20 * time.Second)
	scrapes := 0
	for {
		v := d.scrapeLive(t)
		scrapes++
		if v.Smbsimd.Streaming && v.Smbsimd.Live.Slots >= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon published %+v mid-stream, want %d slots", v.Smbsimd.Live, want)
		}
		time.Sleep(time.Millisecond)
	}

	// The rest goes in chunks with a scrape after each, so the daemon
	// is scraped while it steps them.
	const chunks = 16
	rest := buf.Bytes()[half:]
	for i := 0; i < chunks; i++ {
		if _, err := conn.Write(rest[i*len(rest)/chunks : (i+1)*len(rest)/chunks]); err != nil {
			t.Fatalf("writing chunk %d: %v", i, err)
		}
		d.scrapeLive(t)
		scrapes++
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatalf("half-close: %v", err)
	}
	var resp streamResponse
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if resp.Aborted || resp.ProcessedSlots != len(tr) {
		t.Fatalf("stream aborted or short: processed %d/%d, error %q", resp.ProcessedSlots, len(tr), resp.Error)
	}
	checkResponseOracle(t, &resp, tr, func() core.Policy { return policy.LQD{} })
	if final := d.scrapeLive(t); final.Smbsimd.Live.Arrived != int64(2*len(tr)) {
		t.Fatalf("final live arrivals %d, want %d", final.Smbsimd.Live.Arrived, 2*len(tr))
	}
	t.Logf("%d scrapes", scrapes)
	d.terminate(t)
}
