package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"kubeknots/internal/api"
	"kubeknots/internal/experiments"
	"kubeknots/internal/k8s"
	"kubeknots/internal/persist"
	"kubeknots/internal/sim"
)

// childEnv switches the test binary into running the apiserver itself, so
// the crash test kills a real server process without a separate build.
const childEnv = "KUBEKNOTS_APISERVER_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var listening = regexp.MustCompile(`listening on (\S+)`)

// proc is one apiserver process on a state directory.
type proc struct {
	cmd    *exec.Cmd
	client *api.Client
	mu     sync.Mutex
	log    strings.Builder
	done   chan struct{} // closed once stderr hits EOF
}

// startServer runs the apiserver on dir and waits for its bound address.
func startServer(t *testing.T, dir string) *proc {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-state-dir", dir,
		"-nodes", "2", "-seed", "5", "-snapshot-every", "3", "-drain", "5s")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			p.mu.Lock()
			fmt.Fprintln(&p.log, sc.Text())
			p.mu.Unlock()
			if m := listening.FindStringSubmatch(sc.Text()); m != nil {
				addr <- m[1]
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		p.client = api.NewClient("http://" + a)
	case <-p.done:
		cmd.Wait()
		t.Fatalf("apiserver exited before listening:\n%s", p.output())
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("apiserver did not report its address:\n%s", p.output())
	}
	return p
}

func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log.String()
}

// stop delivers sig and waits for the process to exit.
func (p *proc) stop(t *testing.T, sig os.Signal) error {
	t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	<-p.done
	return p.cmd.Wait()
}

// op is one mutation: a pod submission or a clock advance.
type op struct {
	pod string // "" for an advance
	ms  int64
}

func (o op) do(c *api.Client) error {
	if o.pod == "" {
		_, _, _, err := c.Advance(sim.Time(o.ms) * sim.Millisecond)
		return err
	}
	_, err := c.SubmitManifest(k8s.Manifest{
		Name:     o.pod,
		Workload: k8s.WorkloadRef{Kind: "rodinia", Name: "pathfinder"},
	})
	return err
}

// acked is the client's record of what the server acknowledged.
type acked struct {
	pods    map[string]bool
	clockMS int64
	ops     int
}

func (a *acked) add(o op) {
	a.ops++
	if o.pod == "" {
		a.clockMS += o.ms
	} else {
		a.pods[o.pod] = true
	}
}

// check compares a recovered server with the acknowledged history: every
// acknowledged mutation survived, and beyond them at most the one request
// in flight at the kill did. A landed in-flight request is acknowledged
// from here on.
func (a *acked) check(t *testing.T, c *api.Client, inflight *op) {
	t.Helper()
	pods, err := c.Pods()
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool, len(pods))
	for _, p := range pods {
		got[p.Name] = true
	}
	st, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	landed := false
	for name := range a.pods {
		if !got[name] {
			t.Fatalf("acknowledged pod %s lost in the crash (recovered %v)", name, got)
		}
	}
	for name := range got {
		if a.pods[name] {
			continue
		}
		if inflight == nil || inflight.pod != name {
			t.Fatalf("recovered pod %s was never submitted before the crash", name)
		}
		landed = true
	}
	switch {
	case st.NowMS == a.clockMS:
	case inflight != nil && inflight.pod == "" && st.NowMS == a.clockMS+inflight.ms:
		landed = true
	default:
		t.Fatalf("recovered clock %d ms, acknowledged advances total %d ms (in flight: %+v)", st.NowMS, a.clockMS, inflight)
	}
	if landed {
		a.add(*inflight)
	}
	if st.Persist == nil || st.Persist.RecoveredCommands != a.ops {
		t.Fatalf("recovered %+v, want %d journaled commands", st.Persist, a.ops)
	}
}

// TestSIGKILLKeepsAcknowledgedMutations drives a real apiserver process
// over HTTP, SIGKILLs it at seeded points (one mutation still in flight
// each time), restarts it on the same state directory, and checks that
// every acknowledged mutation survived. A last incarnation shuts down on
// SIGTERM, and the directory must then pass `knotsctl state verify`'s
// offline replay.
func TestSIGKILLKeepsAcknowledgedMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes")
	}
	rng := rand.New(rand.NewSource(14))
	dir := t.TempDir()
	a := &acked{pods: map[string]bool{}}
	next := 0
	newOp := func() op {
		next++
		if rng.Intn(3) == 0 {
			return op{ms: int64(500 * (1 + rng.Intn(8)))}
		}
		return op{pod: fmt.Sprintf("p%03d", next)}
	}

	var inflight *op
	for kill := 0; kill < 3; kill++ {
		p := startServer(t, dir)
		a.check(t, p.client, inflight)
		for n := 3 + rng.Intn(6); n > 0; n-- {
			o := newOp()
			if err := o.do(p.client); err != nil {
				t.Fatalf("%+v: %v\n%s", o, err, p.output())
			}
			a.add(o)
		}
		o := newOp()
		errc := make(chan error, 1)
		go func() { errc <- o.do(p.client) }()
		time.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
		p.stop(t, syscall.SIGKILL)
		if err := <-errc; err == nil {
			a.add(o) // acknowledged before the kill
			inflight = nil
		} else {
			inflight = &o
		}
		t.Logf("kill %d: %d commands acknowledged, in flight: %+v", kill, a.ops, inflight)
	}

	p := startServer(t, dir)
	a.check(t, p.client, inflight)
	for n := 0; n < 3; n++ {
		o := newOp()
		if err := o.do(p.client); err != nil {
			t.Fatal(err)
		}
		a.add(o)
	}
	if err := p.stop(t, syscall.SIGTERM); err != nil {
		t.Fatalf("graceful shutdown: %v\n%s", err, p.output())
	}

	v, err := persist.VerifyDir(dir, experiments.SchedulerByName)
	if err != nil {
		t.Fatalf("state verify: %v", err)
	}
	if v.Journal != a.ops || v.Covers != uint64(a.ops) || v.Torn {
		t.Fatalf("state verify checked %+v, want a %d-record journal under a final checkpoint", v, a.ops)
	}
}
