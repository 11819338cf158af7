package e2etest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cloudwalker"
	"cloudwalker/internal/oracle"
)

// startTimeout bounds how long a child daemon may take to announce its
// address; -race child binaries on a loaded CI box are slow to boot.
const startTimeout = 60 * time.Second

// addrRe matches the daemon's ready line — both the shard banner
// ("serving ... on http://ADDR") and the router banner ("fleet router
// (...) serving on http://ADDR"). The stdout contract the harness (and
// any operator's tooling) depends on.
var addrRe = regexp.MustCompile(` on http://(\S+)$`)

// daemon is one cloudwalkerd child process.
type daemon struct {
	t    *testing.T
	name string
	args []string // launch args, without -addr
	addr string   // bound address, known after start
	cmd  *exec.Cmd
	out  *lockedBuffer
}

// lockedBuffer collects child output safely from the drain goroutine.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (lb *lockedBuffer) Write(p []byte) (int, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.Write(p)
}

func (lb *lockedBuffer) String() string {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.String()
}

// startDaemon launches the built binary with args plus an ephemeral
// -addr, waits for the ready line, and registers a kill cleanup. name is
// for test logs only.
func startDaemon(t *testing.T, name string, args ...string) *daemon {
	t.Helper()
	d := &daemon{t: t, name: name, args: args}
	d.launch("127.0.0.1:0")
	t.Cleanup(func() {
		if d.cmd != nil && d.cmd.Process != nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	return d
}

// launch starts the process bound to bind and parses the announced
// address from stdout.
func (d *daemon) launch(bind string) {
	d.t.Helper()
	d.out = &lockedBuffer{}
	cmd := exec.Command(binPath, append(append([]string{}, d.args...), "-addr", bind)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		d.t.Fatal(err)
	}
	cmd.Stderr = d.out
	if err := cmd.Start(); err != nil {
		d.t.Fatalf("%s: starting %s: %v", d.name, binPath, err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(d.out, line)
			if m := addrRe.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case d.addr = <-addrc:
	case <-time.After(startTimeout):
		cmd.Process.Kill()
		d.t.Fatalf("%s never announced an address; output:\n%s", d.name, d.out.String())
	}
	d.cmd = cmd
}

// base returns the daemon's base URL.
func (d *daemon) base() string { return "http://" + d.addr }

// Kill hard-kills the process (SIGKILL — no drain, the crash case) and
// reaps it.
func (d *daemon) Kill() {
	d.t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		d.t.Fatalf("%s: kill: %v", d.name, err)
	}
	d.cmd.Wait()
}

// Stop gracefully stops the process (SIGTERM drain) and reaps it.
func (d *daemon) Stop() {
	d.t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.t.Fatalf("%s: sigterm: %v", d.name, err)
	}
	if err := d.cmd.Wait(); err != nil {
		d.t.Fatalf("%s: exited with %v after SIGTERM; output:\n%s", d.name, err, d.out.String())
	}
}

// Restart relaunches a killed daemon on the SAME port, so routers keep
// addressing it without membership changes. The freed port can take a
// moment to rebind; retry briefly.
func (d *daemon) Restart() {
	d.t.Helper()
	deadline := time.Now().Add(startTimeout)
	for {
		cmd := exec.Command(binPath, append(append([]string{}, d.args...), "-addr", d.addr)...)
		out := &lockedBuffer{}
		cmd.Stdout = out
		cmd.Stderr = out
		if err := cmd.Start(); err != nil {
			d.t.Fatal(err)
		}
		ok := waitFor(deadline, func() bool {
			return strings.Contains(out.String(), " on http://"+d.addr)
		})
		if ok {
			d.cmd, d.out = cmd, out
			return
		}
		cmd.Process.Kill()
		cmd.Wait()
		if time.Now().After(deadline) {
			d.t.Fatalf("%s: restart on %s never came up; output:\n%s", d.name, d.addr, out.String())
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// waitFor polls cond until it holds or deadline passes.
func waitFor(deadline time.Time, cond func() bool) bool {
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
	return true
}

// waitHealthy polls base's /healthz until status 200 and, when wantUp >= 0,
// until exactly wantUp shards report up (router health aggregates shards).
func waitHealthy(t *testing.T, base string, wantUp int) {
	t.Helper()
	deadline := time.Now().Add(startTimeout)
	ok := waitFor(deadline, func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var hz struct {
			Shards []struct {
				Up bool `json:"up"`
			} `json:"shards"`
		}
		if json.NewDecoder(resp.Body).Decode(&hz) != nil {
			return false
		}
		if resp.StatusCode != http.StatusOK {
			return false
		}
		if wantUp < 0 {
			return true
		}
		up := 0
		for _, sh := range hz.Shards {
			if sh.Up {
				up++
			}
		}
		return up == wantUp
	})
	if !ok {
		t.Fatalf("%s never became healthy (wantUp=%d)", base, wantUp)
	}
}

// shardArgs are the common launch flags for a fleet shard.
func shardArgs(name string, dynamic bool) []string {
	args := []string{"-graph", graphPath, "-index", indexPath, "-shard", name}
	if dynamic {
		args = append(args, "-dynamic")
	}
	return args
}

// startFleet launches n shards and a router over them.
func startFleet(t *testing.T, n int, dynamic bool) (*daemon, []*daemon) {
	t.Helper()
	shards := make([]*daemon, n)
	addrs := make([]string, n)
	for i := range shards {
		name := fmt.Sprintf("shard-%c", 'a'+i)
		shards[i] = startDaemon(t, name, shardArgs(name, dynamic)...)
		addrs[i] = shards[i].addr
	}
	router := startDaemon(t, "router", "-router", "-shards", strings.Join(addrs, ","))
	waitHealthy(t, router.base(), n)
	return router, shards
}

// Shared fixture: the built binary, the querier every shard serves and
// its on-disk artifacts, created once in TestMain (building a -race
// binary and an index per test would dominate the suite's runtime).
var (
	binPath   string
	fixture   *cloudwalker.Querier
	graphPath string
	indexPath string
)

// newFixture builds the graph and index the whole fleet serves. Small
// enough that a -dynamic shard's refresh (full index rebuild) completes
// in well under a second, so rolling-refresh tests stay fast;
// deterministic, so every shard process loads bit-identical artifacts.
func newFixture() (*cloudwalker.Querier, error) {
	g, err := cloudwalker.GenerateRMAT(120, 900, 21)
	if err != nil {
		return nil, err
	}
	opts := cloudwalker.DefaultOptions()
	opts.T = 4
	opts.R = 20
	opts.RPrime = 120
	idx, _, err := cloudwalker.BuildIndex(g, opts)
	if err != nil {
		return nil, err
	}
	return cloudwalker.NewQuerier(g, idx)
}

func TestMain(m *testing.M) {
	if os.Getenv("CLOUDWALKER_E2E_SKIP") != "" {
		fmt.Println("e2etest: skipped via CLOUDWALKER_E2E_SKIP")
		return
	}
	dir, err := os.MkdirTemp("", "cloudwalker-fleet-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2etest:", err)
		os.Exit(1)
	}
	code := func() int {
		defer os.RemoveAll(dir)
		binPath = dir + "/cloudwalkerd"
		buildArgs := []string{"build"}
		if raceEnabled {
			// The parent suite runs under -race; the child processes it
			// spawns must too, or data races in the daemon go undetected.
			buildArgs = append(buildArgs, "-race")
		}
		buildArgs = append(buildArgs, "-o", binPath, "cloudwalker/cmd/cloudwalkerd")
		cmd := exec.Command("go", buildArgs...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "e2etest: building cloudwalkerd:", err)
			return 1
		}
		if fixture, err = newFixture(); err == nil {
			graphPath, indexPath, err = oracle.WriteArtifacts(dir, fixture)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2etest:", err)
			return 1
		}
		return m.Run()
	}()
	os.Exit(code)
}
