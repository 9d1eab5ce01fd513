package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"rex/internal/faultnet/scenariotest"
	"rex/internal/runtime"
)

// TestNodeFlags: a flag value the node cannot run with is refused by name
// before any dataset or socket exists.
func TestNodeFlags(t *testing.T) {
	base := func() daemonOpts {
		return daemonOpts{
			id: 0, nodes: "127.0.0.1:1,127.0.0.1:2",
			generations: 1, genEpochs: 5, modeStr: "rex", algoStr: "dpsgd", scale: 0.1,
		}
	}
	for _, tc := range []struct {
		name string
		edit func(*daemonOpts)
		want string
	}{
		{"negative generations", func(o *daemonOpts) { o.generations = -1 }, "-generations"},
		{"zero gen-epochs", func(o *daemonOpts) { o.genEpochs = 0 }, "-gen-epochs"},
		{"secure resume", func(o *daemonOpts) { o.secure, o.resume = true, true }, "-resume"},
		{"one node", func(o *daemonOpts) { o.nodes = "127.0.0.1:1" }, "-nodes"},
		{"empty node address", func(o *daemonOpts) { o.nodes = "127.0.0.1:1," }, "-nodes"},
		{"id past nodes", func(o *daemonOpts) { o.id = 2 }, "-id"},
		{"negative id", func(o *daemonOpts) { o.id = -1 }, "-id"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := base()
			tc.edit(&o)
			err := run(o)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run: %v, want an error naming %s", err, tc.want)
			}
		})
	}
}

// TestScaleFlag: a -scale whose dataset Generate cannot build is refused
// by name before any dataset or socket exists.
func TestScaleFlag(t *testing.T) {
	for _, scale := range []float64{0.01, 0.001, 0} {
		o := daemonOpts{id: 0, nodes: "127.0.0.1:1,127.0.0.1:2", scale: scale, genEpochs: 5, modeStr: "rex", algoStr: "dpsgd"}
		if err := run(o); err == nil || !strings.Contains(err.Error(), "-scale") {
			t.Fatalf("scale %v: run: %v, want an error naming -scale", scale, err)
		}
	}
}

// TestRexdProcesses drives the real binary as a batch cluster of four
// single-node processes, with -secure and natively. Every node's printed
// final RMSE must be bit-equal to an in-process secure cluster of the same
// workload.
func TestRexdProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs rexd")
	}
	const (
		n         = 4
		genEpochs = 3
		seed      = 5
		scale     = 0.03
		steps     = 60
		points    = 40
	)
	bin := buildRexd(t)
	common := []string{
		"-generations", "1", "-gen-epochs", fmt.Sprint(genEpochs),
		"-seed", fmt.Sprint(seed), "-scale", fmt.Sprint(scale),
		"-steps", fmt.Sprint(steps), "-share", fmt.Sprint(points),
		// The in-process reference runs no failure detector, so a process
		// that starts late must not cost its peers a round.
		"-round-timeout", "0",
	}

	// In-process reference: the workload every rexd process derives from
	// those flags, built here independently of rexd's own code.
	w := scenariotest.NewWorkloadSized(t, n, scale, seed)
	w.Node.StepsPerEpoch, w.Node.SharePoints = steps, points
	ref, err := scenariotest.RunCluster(w.Configs(t, runtime.NewChanNet(n), true), genEpochs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, extra ...string) {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		addrs := strings.Join(freePorts(t, n), ",")
		outs := make([]*bytes.Buffer, n)
		procs := make([]*exec.Cmd, n)
		for i := range procs {
			args := append([]string{"-id", fmt.Sprint(i), "-nodes", addrs}, extra...)
			outs[i] = &bytes.Buffer{}
			procs[i] = exec.CommandContext(ctx, bin, append(args, common...)...)
			procs[i].Stdout = outs[i]
			procs[i].Stderr = outs[i]
			if err := procs[i].Start(); err != nil {
				t.Fatal(err)
			}
		}
		for i := range procs {
			if err := procs[i].Wait(); err != nil {
				t.Fatalf("process %d: %v\n%s", i, err, outs[i])
			}
		}
		got := map[int]float64{}
		for _, out := range outs {
			for _, line := range strings.Split(out.String(), "\n") {
				var id int
				var rmse string
				if _, err := fmt.Sscanf(line, "node %d done: final RMSE %s", &id, &rmse); err != nil {
					continue
				}
				v, err := strconv.ParseFloat(rmse, 64)
				if err != nil {
					t.Fatalf("node %d: unparsable RMSE %q", id, rmse)
				}
				if _, dup := got[id]; dup {
					t.Fatalf("node %d reported twice", id)
				}
				got[id] = v
			}
		}
		if len(got) != n {
			for i, out := range outs {
				t.Logf("process %d:\n%s", i, out)
			}
			t.Fatalf("parsed %d node results, want %d", len(got), n)
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i].FinalRMSE) {
				t.Fatalf("node %d: final RMSE %v, in-process cluster %v", i, got[i], ref[i].FinalRMSE)
			}
		}
	}

	t.Run("secure", func(t *testing.T) { check(t, "-secure") })
	t.Run("single-node", func(t *testing.T) { check(t) })
}
