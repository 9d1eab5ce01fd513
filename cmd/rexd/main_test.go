package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rex/internal/dataset"
	"rex/internal/mf"
	"rex/internal/rank"
	"rex/internal/store"
)

// rexdBin builds the daemon binary once per test process, preferring a
// race-instrumented build (the HTTP handlers race the training loop by
// construction); tests that exec it share the artifact.
var rexdBin struct {
	once sync.Once
	path string
	err  error
}

func buildRexd(t *testing.T) string {
	t.Helper()
	rexdBin.once.Do(func() {
		dir, err := os.MkdirTemp("", "rexdbin")
		if err != nil {
			rexdBin.err = err
			return
		}
		bin := filepath.Join(dir, "rexd")
		if out, err := exec.Command("go", "build", "-race", "-o", bin, "rex/cmd/rexd").CombinedOutput(); err != nil {
			if out2, err2 := exec.Command("go", "build", "-o", bin, "rex/cmd/rexd").CombinedOutput(); err2 != nil {
				rexdBin.err = fmt.Errorf("cannot build rexd: %v\n%s\n%s", err2, out, out2)
				return
			}
		}
		rexdBin.path = bin
	})
	if rexdBin.err != nil {
		t.Skipf("%v", rexdBin.err)
	}
	return rexdBin.path
}

// freePorts reserves n distinct localhost TCP ports. The listeners are
// closed before returning, so a parallel process could in principle steal
// one — acceptable in tests.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

var client = &http.Client{Timeout: 10 * time.Second}

func getJSON(addr, path string, out any) (int, error) {
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// waitStatus polls /status until ok(status) or the deadline.
func waitStatus(t *testing.T, addr, what string, ok func(map[string]any) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	var last map[string]any
	for time.Now().Before(deadline) {
		var st map[string]any
		if code, err := getJSON(addr, "/status", &st); err == nil && code == http.StatusOK {
			last = st
			if ok(st) {
				return st
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s on %s (last status: %v)", what, addr, last)
	return nil
}

func num(st map[string]any, key string) float64 {
	v, _ := st[key].(float64)
	return v
}

type daemon struct {
	cmd *exec.Cmd
	out bytes.Buffer
}

func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(bin, args...)}
	d.cmd.Stdout = &d.out
	d.cmd.Stderr = &d.out
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return d
}

// output kills the daemon if it still runs, reaps it and returns all it
// wrote. exec's copier goroutine writes out until Wait returns, so the
// buffer is read only after Kill + Wait; a second Wait returns at once.
func (d *daemon) output() string {
	d.cmd.Process.Kill()
	d.cmd.Wait()
	return d.out.String()
}

// TestDaemonClusterServeResumeRejoin is the rexd acceptance path: a
// 2-node daemon cluster trains across generations while serving, a rating
// POSTed before kill -9 survives the crash, and the restarted node
// (-resume) picks up from persisted state and is readmitted by its peer's
// failure detector. Both nodes then drain gracefully and exit 0. The
// serving contract on a live daemon is TestServingContractOnHeldSnapshot.
func TestDaemonClusterServeResumeRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs rexd")
	}
	bin := buildRexd(t)
	gossip := freePorts(t, 2)
	web := freePorts(t, 2)
	nodesArg := strings.Join(gossip, ",")
	dirs := []string{t.TempDir(), t.TempDir()}
	args := func(id int) []string {
		return []string{
			"-id", fmt.Sprint(id),
			"-nodes", nodesArg,
			"-http", web[id],
			"-data", dirs[id],
			"-generations", "0", // run until drained
			"-gen-epochs", "2",
			"-seed", "5", "-scale", "0.03", "-steps", "400", "-share", "40",
			"-round-timeout", "750ms", "-peer-grace", "2",
		}
	}
	d0 := startDaemon(t, bin, args(0)...)
	d1 := startDaemon(t, bin, args(1)...)
	defer func() {
		out0, out1 := d0.output(), d1.output()
		if t.Failed() {
			t.Logf("node 0 output:\n%s", out0)
			t.Logf("node 1 output:\n%s", out1)
		}
	}()

	// Both nodes through ≥2 full generations (gen 2 persists at epoch 4;
	// epoch 5 started means that snapshot is on disk).
	for i, addr := range web {
		waitStatus(t, addr, "2 generations", func(st map[string]any) bool {
			return num(st, "epoch") >= 5
		})
		t.Logf("node %d reached epoch 5", i)
	}

	// A rating accepted before the crash must survive it: POST to node 1,
	// whose WAL append happens before the 200.
	rated := dataset.Rating{User: 999_999, Item: 3, Value: 4.5}
	resp, err := client.Post("http://"+web[1]+"/rate", "application/json",
		strings.NewReader(fmt.Sprintf(`{"user":%d,"item":%d,"value":%g}`, rated.User, rated.Item, rated.Value)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/rate: %d", resp.StatusCode)
	}

	st0 := waitStatus(t, web[0], "baseline", func(map[string]any) bool { return true })
	lostBefore, rejoinsBefore := num(st0, "peers_lost"), num(st0, "rejoins")

	// Crash node 1 hard — no drain, no final snapshot.
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d1.cmd.Wait()
	killedAt := time.Now()
	waitStatus(t, web[0], "node 0 to drop node 1", func(st map[string]any) bool {
		return num(st, "peers_lost") > lostBefore
	})
	t.Logf("node 0 dropped node 1 %.1fs after kill -9", time.Since(killedAt).Seconds())

	// Restart from persisted state.
	d1b := startDaemon(t, bin, append(args(1), "-resume")...)
	defer func() {
		if out := d1b.output(); t.Failed() {
			t.Logf("node 1 (resumed) output:\n%s", out)
		}
	}()
	st1 := waitStatus(t, web[1], "resumed node up", func(st map[string]any) bool {
		return st["resumed"] == true
	})
	resumeEpoch := num(st1, "epoch")
	if resumeEpoch < 4 {
		t.Errorf("resumed at epoch %v, want >= 4 (two persisted generations)", resumeEpoch)
	}
	// It must actually train on, not just restart: epoch advances past the
	// resume point, which requires node 0's gossip to flow again.
	waitStatus(t, web[1], "resumed node to train past its snapshot", func(st map[string]any) bool {
		return num(st, "epoch") > resumeEpoch
	})
	// And node 0's failure detector must have readmitted it.
	waitStatus(t, web[0], "node 0 to rejoin node 1", func(st map[string]any) bool {
		return num(st, "rejoins") > rejoinsBefore
	})
	t.Log("node 1 resumed, trained past its snapshot, and was readmitted by node 0")

	// Durability: the pre-crash rating is in the resumed node's state
	// (snapshot or WAL replay — either way it must be there).
	found := false
	for attempt := 0; attempt < 30 && !found; attempt++ {
		var snap SnapshotHTTP
		if code, err := getJSON(web[1], "/snapshot", &snap); err == nil && code == http.StatusOK {
			ratings, _, err := dataset.DecodeRatings(snap.Ratings)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range ratings {
				if r == rated {
					found = true
					break
				}
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !found {
		t.Fatal("rating POSTed before kill -9 missing after -resume")
	}

	// Graceful drain: both nodes finish their epoch, persist, exit 0.
	drainClient := &http.Client{Timeout: 60 * time.Second}
	for i, addr := range []string{web[0], web[1]} {
		resp, err := drainClient.Post("http://"+addr+"/drain", "application/json", nil)
		if err != nil {
			t.Fatalf("draining node %d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("draining node %d: %d", i, resp.StatusCode)
		}
	}
	if err := d0.cmd.Wait(); err != nil {
		t.Fatalf("node 0 exit: %v", err)
	}
	if err := d1b.cmd.Wait(); err != nil {
		t.Fatalf("node 1 exit: %v", err)
	}
	t.Log("both daemons drained and exited 0")
}

// TestServingContractOnHeldSnapshot is the serving contract on a live
// daemon: /recommend must be bit-identical to offline rank.TopN over the
// state /snapshot returns. That needs both endpoints to answer from one
// published snapshot, so the test holds it still: the daemon's only peer
// never starts and -round-timeout 0 waits for its frame forever, so after
// its first epoch the daemon serves a snapshot that no epoch replaces.
func TestServingContractOnHeldSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs rexd")
	}
	bin := buildRexd(t)
	gossip := freePorts(t, 2)
	web := freePorts(t, 1)[0]
	d := startDaemon(t, bin,
		"-id", "0", "-nodes", strings.Join(gossip, ","), "-http", web,
		"-seed", "5", "-scale", "0.03", "-steps", "400", "-share", "40",
		"-round-timeout", "0")
	defer func() {
		if out := d.output(); t.Failed() {
			t.Logf("daemon output:\n%s", out)
		}
	}()
	waitStatus(t, web, "the first epoch", func(st map[string]any) bool {
		return num(st, "epoch") >= 1
	})

	getSnapshot := func() SnapshotHTTP {
		var snap SnapshotHTTP
		if code, err := getJSON(web, "/snapshot", &snap); err != nil || code != http.StatusOK {
			t.Fatalf("/snapshot: %d %v", code, err)
		}
		return snap
	}
	snap := getSnapshot()
	ratings, _, err := dataset.DecodeRatings(snap.Ratings)
	if err != nil {
		t.Fatal(err)
	}
	m := mf.New(mf.DefaultConfig())
	if err := m.Unmarshal(snap.Model); err != nil {
		t.Fatal(err)
	}
	for _, r := range []dataset.Rating{ratings[0], ratings[len(ratings)/2], ratings[len(ratings)-1]} {
		user := r.User
		var rec RecommendHTTP
		if code, err := getJSON(web, fmt.Sprintf("/recommend?user=%d&n=10", user), &rec); err != nil || code != http.StatusOK {
			t.Fatalf("/recommend: %d %v", code, err)
		}
		if rec.Epoch != snap.Epoch {
			t.Fatalf("/recommend answered from epoch %d, /snapshot from %d: the snapshot was not held", rec.Epoch, snap.Epoch)
		}
		want := rank.TopN(m, user, snap.NumItems, 10, rank.SeenSet(ratings, user))
		if len(want) != len(rec.Items) {
			t.Fatalf("user %d: served %d items, offline %d", user, len(rec.Items), len(want))
		}
		for i, it := range want {
			if rec.Items[i].Item != it.ID || rec.Items[i].Score != it.Score {
				t.Fatalf("user %d rank %d: served %+v != offline %+v (epoch %d)",
					user, i, rec.Items[i], it, snap.Epoch)
			}
		}
	}
	if again := getSnapshot(); again.Epoch != snap.Epoch {
		t.Fatalf("the snapshot moved from epoch %d to %d while it was read", snap.Epoch, again.Epoch)
	}
	t.Logf("/recommend bit-identical to offline TopN at epoch %d", snap.Epoch)
}

// TestShedLeavesNoWALTrace is the admission-control durability contract
// under crash: against a rate-limited daemon, some ratings are acked 200
// (WAL append before the ack) and some shed 429 (turned away before any
// write). After kill -9, the on-disk store must contain every acked
// rating and no shed one, and a -resume restart must serve the acked
// ones from its snapshot.
func TestShedLeavesNoWALTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs rexd")
	}
	bin := buildRexd(t)
	gossip := freePorts(t, 2)
	web := freePorts(t, 2)
	nodesArg := strings.Join(gossip, ",")
	dirs := []string{t.TempDir(), t.TempDir()}
	args := func(id int) []string {
		a := []string{
			"-id", fmt.Sprint(id),
			"-nodes", nodesArg,
			"-http", web[id],
			"-data", dirs[id],
			"-generations", "0",
			"-gen-epochs", "2",
			"-seed", "5", "-scale", "0.03", "-steps", "200", "-share", "40",
			"-round-timeout", "750ms", "-peer-grace", "2",
		}
		if id == 0 {
			// Tiny refill, tiny burst: a rapid burst of posts guarantees
			// both acks and sheds on node 0.
			a = append(a, "-rate-limit", "0.1", "-rate-burst", "3", "-ingest-queue", "16")
		}
		return a
	}
	d0 := startDaemon(t, bin, args(0)...)
	d1 := startDaemon(t, bin, args(1)...)
	defer func() {
		out0, out1 := d0.output(), d1.output()
		if t.Failed() {
			t.Logf("node 0 output:\n%s", out0)
			t.Logf("node 1 output:\n%s", out1)
		}
	}()
	waitStatus(t, web[0], "first snapshot", func(st map[string]any) bool {
		return num(st, "epoch") >= 1
	})

	// Burst 20 distinct ratings at node 0: the first ~3 consume the burst
	// tokens (200, WAL-appended), the rest shed 429 before any write.
	type pair struct{ user, item uint32 }
	acked := map[pair]bool{}
	shed := map[pair]bool{}
	for i := 0; i < 20; i++ {
		p := pair{user: 900_000 + uint32(i), item: uint32(i % 5)}
		resp, err := client.Post("http://"+web[0]+"/rate", "application/json",
			strings.NewReader(fmt.Sprintf(`{"user":%d,"item":%d,"value":4}`, p.user, p.item)))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			acked[p] = true
		case http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("429 without Retry-After (body %v)", body)
			}
			if body["reason"] != "rate_limited" && body["reason"] != "queue_full" {
				t.Fatalf("429 reason %v", body["reason"])
			}
			shed[p] = true
		default:
			t.Fatalf("request %d: unexpected status %d (%v)", i, resp.StatusCode, body)
		}
	}
	if len(acked) == 0 || len(shed) == 0 {
		t.Fatalf("need both outcomes to test the invariant: %d acked, %d shed", len(acked), len(shed))
	}
	t.Logf("%d acked, %d shed", len(acked), len(shed))

	// Crash node 0 hard — whatever is durable is exactly what the WAL and
	// snapshots hold.
	if err := d0.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d0.cmd.Wait()

	dir, err := store.Open(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	snap, replayed, err := dir.Load()
	if err != nil {
		t.Fatal(err)
	}
	dir.Close()
	durable := map[pair]bool{}
	if snap != nil {
		for _, r := range snap.Ratings {
			durable[pair{r.User, r.Item}] = true
		}
	}
	for _, r := range replayed {
		durable[pair{r.User, r.Item}] = true
	}
	for p := range acked {
		if !durable[p] {
			t.Errorf("acked rating %+v missing from the post-crash store", p)
		}
	}
	for p := range shed {
		if durable[p] {
			t.Errorf("shed rating %+v found in the post-crash store — 429 left a WAL trace", p)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	t.Log("post-crash store holds every acked rating and no shed one")

	// Resume and verify the acked ratings reach the served snapshot.
	d0b := startDaemon(t, bin, append(args(0), "-resume")...)
	defer func() {
		if out := d0b.output(); t.Failed() {
			t.Logf("node 0 (resumed) output:\n%s", out)
		}
	}()
	waitStatus(t, web[0], "resumed node up", func(st map[string]any) bool {
		return st["resumed"] == true
	})
	deadline := time.Now().Add(60 * time.Second)
	for {
		var snapHTTP SnapshotHTTP
		if code, err := getJSON(web[0], "/snapshot", &snapHTTP); err == nil && code == http.StatusOK {
			ratings, _, err := dataset.DecodeRatings(snapHTTP.Ratings)
			if err != nil {
				t.Fatal(err)
			}
			got := map[pair]bool{}
			for _, r := range ratings {
				got[pair{r.User, r.Item}] = true
			}
			missing := 0
			for p := range acked {
				if !got[p] {
					missing++
				}
			}
			for p := range shed {
				if got[p] {
					t.Fatalf("shed rating %+v resurfaced in the resumed snapshot", p)
				}
			}
			if missing == 0 {
				t.Log("resumed snapshot serves every acked rating, zero shed ones")
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("resumed snapshot never caught up with the acked ratings")
		}
		time.Sleep(200 * time.Millisecond)
	}

	// Clean exit for both nodes.
	drainClient := &http.Client{Timeout: 60 * time.Second}
	for i, addr := range web {
		resp, err := drainClient.Post("http://"+addr+"/drain", "application/json", nil)
		if err != nil {
			t.Fatalf("draining node %d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("draining node %d: %d", i, resp.StatusCode)
		}
	}
	if err := d0b.cmd.Wait(); err != nil {
		t.Fatalf("node 0 exit: %v", err)
	}
	if err := d1.cmd.Wait(); err != nil {
		t.Fatalf("node 1 exit: %v", err)
	}
}

// TestResumeFromWALOnly: a data directory that holds a WAL and no snapshot
// — a node killed before its first snapshot landed — is durable state too.
// -resume must apply the replayed ratings to the fresh node and keep
// serving them after later snapshots have rotated and pruned the log they
// came from. No race with the persist loop: the directory is prepared
// through the store API before the daemon starts.
func TestResumeFromWALOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs rexd")
	}
	bin := buildRexd(t)
	dirs := []string{t.TempDir(), t.TempDir()}
	acked := []dataset.Rating{
		{User: 910_001, Item: 1, Value: 4},
		{User: 910_002, Item: 2, Value: 2.5},
		{User: 910_003, Item: 3, Value: 5},
	}
	dir, err := store.Open(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Append(acked[:2]); err != nil {
		t.Fatal(err)
	}
	if err := dir.Append(acked[2:]); err != nil {
		t.Fatal(err)
	}
	if err := dir.Close(); err != nil {
		t.Fatal(err)
	}

	gossip := freePorts(t, 2)
	web := freePorts(t, 2)
	args := func(id int) []string {
		return []string{
			"-id", fmt.Sprint(id),
			"-nodes", strings.Join(gossip, ","),
			"-http", web[id],
			"-data", dirs[id],
			"-generations", "0",
			"-gen-epochs", "1", // one snapshot per epoch
			"-seed", "5", "-scale", "0.03", "-steps", "200", "-share", "40",
			"-round-timeout", "750ms", "-peer-grace", "2",
		}
	}
	d0 := startDaemon(t, bin, append(args(0), "-resume")...)
	d1 := startDaemon(t, bin, args(1)...)
	defer func() {
		out0, out1 := d0.output(), d1.output()
		if t.Failed() {
			t.Logf("node 0 output:\n%s", out0)
			t.Logf("node 1 output:\n%s", out1)
		}
	}()

	// generation counts up before its snapshot is written, so 3 means two
	// snapshots are on disk and prune has run twice.
	st := waitStatus(t, web[0], "two snapshots past the resume", func(st map[string]any) bool {
		return num(st, "generation") >= 3
	})
	if st["resumed"] != true {
		t.Errorf("/status resumed = %v after recovering a WAL, want true", st["resumed"])
	}
	var snap SnapshotHTTP
	if code, err := getJSON(web[0], "/snapshot", &snap); err != nil || code != http.StatusOK {
		t.Fatalf("/snapshot: %d %v", code, err)
	}
	ratings, _, err := dataset.DecodeRatings(snap.Ratings)
	if err != nil {
		t.Fatal(err)
	}
	served := map[dataset.Rating]bool{}
	for _, r := range ratings {
		served[r] = true
	}
	for _, r := range acked {
		if !served[r] {
			t.Errorf("WAL rating %+v missing from /snapshot at epoch %d", r, snap.Epoch)
		}
	}
}

// SnapshotHTTP mirrors serve.SnapshotResponse (kept local so the test
// exercises the wire format, not shared structs).
type SnapshotHTTP struct {
	Epoch    int     `json:"epoch"`
	NumItems int     `json:"num_items"`
	Model    []byte  `json:"model"`
	Ratings  []byte  `json:"ratings"`
	RMSE     float64 `json:"rmse"`
}

// RecommendHTTP mirrors serve.RecommendResponse.
type RecommendHTTP struct {
	User  uint32 `json:"user"`
	Epoch int    `json:"epoch"`
	Model string `json:"model"`
	Items []struct {
		Item  uint32  `json:"item"`
		Score float32 `json:"score"`
	} `json:"items"`
}
