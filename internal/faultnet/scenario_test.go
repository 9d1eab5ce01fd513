package faultnet

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

func TestParseValidateRoundtrip(t *testing.T) {
	src := `{
		"name": "x", "seed": 9, "epochs": 8,
		"drop": 0.1, "delay": 0.5, "delay_ms": 3, "delay_jitter_ms": 7,
		"duplicate": 0.2, "reorder": 0.05,
		"partitions": [{"from": 2, "until": 4, "groups": [[0,1],[2,3]]}],
		"churn": [{"node": 3, "leave": 2, "rejoin": 5}],
		"grace_rounds": 2, "rejoin": true, "timeout_ms": 500
	}`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "x" || s.Drop != 0.1 || len(s.Partitions) != 1 || len(s.Churn) != 1 {
		t.Fatalf("parsed %+v", s)
	}
	if s.Timeout() != 500*time.Millisecond {
		t.Fatalf("timeout %v", s.Timeout())
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s2, s) {
		t.Fatalf("roundtrip drifted:\n%+v\n%+v", s2, s)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	bad := []string{
		`{"drop": 1.5}`,
		`{"delay_ms": -1}`,
		`{"partitions": [{"from": 3, "until": 3, "groups": [[0],[1]]}]}`,
		`{"partitions": [{"from": 0, "until": 2, "groups": [[0,1]]}]}`,
		`{"partitions": [{"from": 0, "until": 2, "groups": [[0,1],[1,2]]}]}`,
		`{"churn": [{"node": -1, "leave": 0}]}`,
		`{"epochs": -1}`,
		`{"delay_ms": 10000000000000}`,
		`{"timeout_ms": 10000000000000}`,
		`{"delay_ms": 9223372036854, "delay_jitter_ms": 1}`,
		`{"delay_ms": 1, "delay_jitter_ms": 9223372036854}`,
		`not json`,
	}
	for _, src := range bad {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("spec accepted: %s", src)
		}
	}
}

// FuzzScenarioParse holds the parser of rexd's -scenario file to two
// properties: Parse never panics, and a scenario it accepts never yields a
// negative delay or round timeout. (A wrapped duration makes the live
// runner ignore its timeout and wait forever, and the simulator charge
// negative time.) The checked-in corpus adds the overflow cases.
func FuzzScenarioParse(f *testing.F) {
	for _, sc := range Canned() {
		b, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		sc, err := Parse(b)
		if err != nil {
			return
		}
		if d := sc.Timeout(); d < 0 {
			t.Fatalf("accepted timeout_ms %d gives timeout %v", sc.TimeoutMs, d)
		}
		for from := 0; from < 4; from++ {
			for to := 0; to < 4; to++ {
				for e := 0; e < 8; e++ {
					if d, _ := sc.DelayAt(from, to, e); d < 0 {
						t.Fatalf("accepted delay_ms %d + jitter %d gives delay %v on %d->%d at epoch %d",
							sc.DelayMs, sc.DelayJitterMs, d, from, to, e)
					}
				}
			}
		}
	})
}

// TestScheduleDeterministic pins the core contract: every decision is a
// pure function of (seed, edge, epoch) — two Scenario values with the same
// spec agree everywhere, and a different seed disagrees somewhere.
func TestScheduleDeterministic(t *testing.T) {
	a := &Scenario{Seed: 5, Drop: 0.3, Delay: 0.3, DelayMs: 1, DelayJitterMs: 9, Duplicate: 0.3, Reorder: 0.3}
	b := &Scenario{Seed: 5, Drop: 0.3, Delay: 0.3, DelayMs: 1, DelayJitterMs: 9, Duplicate: 0.3, Reorder: 0.3}
	c := &Scenario{Seed: 6, Drop: 0.3, Delay: 0.3, DelayMs: 1, DelayJitterMs: 9, Duplicate: 0.3, Reorder: 0.3}
	diff := 0
	for from := 0; from < 6; from++ {
		for to := 0; to < 6; to++ {
			for e := 0; e < 50; e++ {
				if a.DropAt(from, to, e) != b.DropAt(from, to, e) ||
					a.DuplicateAt(from, to, e) != b.DuplicateAt(from, to, e) ||
					a.ReorderAt(from, to, e) != b.ReorderAt(from, to, e) {
					t.Fatalf("same spec disagrees at (%d,%d,%d)", from, to, e)
				}
				da, oka := a.DelayAt(from, to, e)
				db, okb := b.DelayAt(from, to, e)
				if oka != okb || da != db {
					t.Fatalf("delay disagrees at (%d,%d,%d)", from, to, e)
				}
				if a.DropAt(from, to, e) != c.DropAt(from, to, e) {
					diff++
				}
			}
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical drop schedules")
	}
}

// TestScheduleRates sanity-checks that probabilities land near their
// targets over many cells (the hash is a uniform stream, not a bias).
func TestScheduleRates(t *testing.T) {
	s := &Scenario{Seed: 77, Drop: 0.25}
	hits, total := 0, 0
	for from := 0; from < 20; from++ {
		for to := 0; to < 20; to++ {
			for e := 0; e < 25; e++ {
				total++
				if s.DropAt(from, to, e) {
					hits++
				}
			}
		}
	}
	rate := float64(hits) / float64(total)
	if rate < 0.2 || rate > 0.3 {
		t.Fatalf("drop rate %.3f, want ~0.25", rate)
	}
}

func TestPartitionedCutsCrossGroupOnly(t *testing.T) {
	s := &Scenario{Partitions: []Partition{{From: 2, Until: 4, Groups: [][]int{{0, 1}, {2, 3}}}}}
	cases := []struct {
		from, to, epoch int
		cut             bool
	}{
		{0, 2, 2, true}, {2, 0, 3, true}, {1, 3, 2, true},
		{0, 1, 2, false}, {2, 3, 3, false}, // intra-group
		{0, 2, 1, false}, {0, 2, 4, false}, // outside the window
		{0, 4, 2, false}, {4, 0, 2, false}, // node 4 unlisted: unaffected
	}
	for _, c := range cases {
		if got := s.Partitioned(c.from, c.to, c.epoch); got != c.cut {
			t.Errorf("Partitioned(%d,%d,%d) = %v, want %v", c.from, c.to, c.epoch, got, c.cut)
		}
	}
}

func TestAbsentAndEdgeEpoch(t *testing.T) {
	s := &Scenario{Epochs: 10, Churn: []Churn{
		{Node: 2, Leave: 3, Rejoin: 5},
		{Node: 4, Leave: 6}, // permanent (rejoin unset)
	}}
	if s.Absent(2, 2) || !s.Absent(2, 3) || !s.Absent(2, 4) || s.Absent(2, 5) {
		t.Fatal("temporary churn window wrong")
	}
	if !s.Absent(4, 6) || !s.Absent(4, 99) || s.Absent(4, 5) {
		t.Fatal("permanent churn wrong")
	}
	// Edge 0->2: node 2 is absent epochs 3,4, so frames are suppressed at
	// sender epochs 2,3,4 (the frame sent at e is consumed at e+1). The
	// seq-th actual send maps to epochs 0,1,5,6,...
	want := []int{0, 1, 5, 6, 7}
	for seq, e := range want {
		if got := s.EdgeEpoch(0, 2, seq); got != e {
			t.Fatalf("EdgeEpoch(0,2,%d) = %d, want %d", seq, got, e)
		}
	}
	// Edges not touching churned nodes map 1:1.
	if s.EdgeEpoch(0, 1, 7) != 7 {
		t.Fatal("clean edge remapped")
	}
	// SendsAt symmetry: the absent sender sends nothing either.
	if s.SendsAt(2, 0, 3) || !s.SendsAt(2, 0, 5) {
		t.Fatal("SendsAt wrong for churned sender")
	}
}

func TestReorderSkipsFinalFrame(t *testing.T) {
	s := &Scenario{Seed: 3, Epochs: 5, Reorder: 1}
	if s.ReorderAt(0, 1, 4) {
		t.Fatal("final scheduled frame reordered (would strand the stash)")
	}
	if !s.ReorderAt(0, 1, 0) {
		t.Fatal("reorder with p=1 declined a mid-run frame")
	}
}

func TestLogCanonicalOrderAndCounts(t *testing.T) {
	var l Log
	l.Add(Event{Epoch: 2, From: 1, To: 0, Kind: KindDrop})
	l.Add(Event{Epoch: 0, From: 3, To: 2, Kind: KindDelay})
	l.Add(Event{Epoch: 0, From: 3, To: 2, Kind: KindDuplicate})
	l.Add(Event{Epoch: 0, From: 1, To: 2, Kind: KindPartition})
	evs := l.Events()
	for i := 1; i < len(evs); i++ {
		a, b := evs[i-1], evs[i]
		if a.Epoch > b.Epoch || (a.Epoch == b.Epoch && a.From > b.From) {
			t.Fatalf("events not canonically sorted: %v", evs)
		}
	}
	c := l.Counts()
	if c.Dropped != 2 || c.Delayed != 1 || c.Duplicated != 1 || c.PartitionDrops != 1 {
		t.Fatalf("counts %+v", c)
	}
}

func TestCannedScenariosValidate(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Canned() {
		if err := s.Validate(); err != nil {
			t.Errorf("canned %q invalid: %v", s.Name, err)
		}
		if seen[s.Name] {
			t.Errorf("duplicate canned name %q", s.Name)
		}
		seen[s.Name] = true
	}
	if _, ok := CannedByName("split-heal"); !ok {
		t.Fatal("split-heal missing")
	}
	if _, ok := CannedByName("nope"); ok {
		t.Fatal("unknown canned name resolved")
	}
}
