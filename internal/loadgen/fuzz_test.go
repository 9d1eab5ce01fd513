package loadgen

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzSpecParse holds the spec parser behind -load to three properties:
// Parse never panics; a spec it accepts is within the user and item caps
// and builds with NewGen into one weight per user; and its first ticks
// give each user at least the whole events its rate asks for, all inside
// the spec's user and item ranges. The checked-in corpus adds the
// over-allocation cases (users 10^12, rates that would overflow a per-user
// count).
func FuzzSpecParse(f *testing.F) {
	for _, s := range append(Canned(), tinySpec()) {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Parse(b)
		if err != nil {
			return
		}
		if s.Users > maxUsers || uint64(s.Items) > maxItems {
			t.Fatalf("accepted users %d, items %d", s.Users, s.Items)
		}
		if s.Users > 1<<16 {
			return // valid, but too large to build once per fuzz input
		}
		g := NewGen(s)
		if cap(g.weight) != s.Users {
			t.Fatalf("NewGen for %d users holds %d weights", s.Users, cap(g.weight))
		}
		var evs []Event
		for tick := 0; tick < min(s.Ticks, 3); tick++ {
			total := 0
			for u := 0; u < s.Users; u++ {
				r, c := g.rateAt(u, tick), g.countAt(u, tick)
				if c < 0 || float64(c) < math.Floor(r) {
					t.Fatalf("tick %d user %d: rate %g gives %d events", tick, u, r, c)
				}
				total += c
			}
			if total > maxTickRate+s.Users {
				t.Fatalf("tick %d: %d events, above the %d the peak-rate cap allows", tick, total, maxTickRate+s.Users)
			}
			if total > 1<<16 {
				continue // valid, but too many events to build once per fuzz input
			}
			evs = g.EventsAt(tick, evs[:0])
			if len(evs) != total {
				t.Fatalf("tick %d: EventsAt gave %d events, counts sum to %d", tick, len(evs), total)
			}
			for _, ev := range evs {
				if ev.Tick != tick || int(ev.User) >= s.Users {
					t.Fatalf("tick %d: event %+v outside tick or %d users", tick, ev, s.Users)
				}
				if ev.Kind == Write && int(ev.Item) >= s.Items {
					t.Fatalf("tick %d: write %+v outside %d items", tick, ev, s.Items)
				}
			}
		}
	})
}
