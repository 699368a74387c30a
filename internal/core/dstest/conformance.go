package dstest

import (
	"embed"
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// ConformanceVersion is the fixture schema version. Fixtures with a
// different major version are rejected rather than misinterpreted.
// Schema (docs/CONFORMANCE.md has the narrative version):
//
//	{
//	  "v": 1,                  // schema version (this constant)
//	  "name": "...",           // fixture id, used as the subtest name
//	  "description": "...",
//	  "places": 4,             // core.Options.Places
//	  "k": 64,                 // relaxation parameter for every push
//	  "stale_mod": 3,          // > 0: values divisible by it are stale
//	  "segments": [            // push phase + drain-to-empty phase pairs
//	    {
//	      "pushes": [{"p": 0, "v": 123}, ...],  // explicit op list
//	      "expect_drained": [123, ...],         // sorted live multiset
//	      "expect_eliminated": 7                // stale pushes this segment
//	    }
//	  ]
//	}
//
// The expectations are derived from the core.DS contract alone — never
// from a reference implementation's behavior — so every conforming
// structure, present or future, must reproduce them exactly:
// exactly-once delivery and no lost tasks make each segment's drained
// multiset equal its live pushes, and lazy stale elimination must have
// retired every stale push by the time a drain observes emptiness.
const ConformanceVersion = 1

// ConformancePatience is the consecutive-failed-pop budget a fixture
// drain allows before declaring the structure empty. Pops rotate over
// every place, so spurious per-place failures (relaxed lane sampling,
// steal misses) are retried far past any bounded failure streak a
// sequential, single-goroutine drain can produce.
const ConformancePatience = 4096

// FixturePush is one scripted push: value V on behalf of place P.
type FixturePush struct {
	P int   `json:"p"`
	V int64 `json:"v"`
}

// FixtureSegment is one push-then-drain-to-empty phase.
type FixtureSegment struct {
	Pushes []FixturePush `json:"pushes"`
	// ExpectDrained is the segment's live (non-stale) push values,
	// sorted ascending: the exact multiset a conforming drain returns.
	ExpectDrained []int64 `json:"expect_drained"`
	// ExpectEliminated is the number of stale values among the
	// segment's pushes: the exact count a conforming structure retires
	// (lazily, via the Stale predicate) before the drain sees empty.
	ExpectEliminated int64 `json:"expect_eliminated"`
}

// Fixture is one versioned conformance case.
type Fixture struct {
	V           int              `json:"v"`
	Name        string           `json:"name"`
	Description string           `json:"description,omitempty"`
	Places      int              `json:"places"`
	K           int              `json:"k"`
	StaleMod    int64            `json:"stale_mod,omitempty"`
	Segments    []FixtureSegment `json:"segments"`
}

//go:embed testdata/conformance/*.json
var fixtureFS embed.FS

// LoadFixtures parses every embedded fixture, sorted by file name.
func LoadFixtures() ([]Fixture, error) {
	entries, err := fixtureFS.ReadDir("testdata/conformance")
	if err != nil {
		return nil, err
	}
	var out []Fixture
	for _, e := range entries {
		raw, err := fixtureFS.ReadFile("testdata/conformance/" + e.Name())
		if err != nil {
			return nil, err
		}
		var fx Fixture
		if err := json.Unmarshal(raw, &fx); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		if fx.V != ConformanceVersion {
			return nil, fmt.Errorf("%s: fixture schema v%d, this suite speaks v%d", e.Name(), fx.V, ConformanceVersion)
		}
		out = append(out, fx)
	}
	return out, nil
}

// Conformance runs every embedded fixture against the factory: each
// segment's pushes are applied verbatim, the structure is drained to
// empty from all places round-robin, and the drained multiset plus the
// elimination count are compared against the fixture's expected
// outputs. Regenerate the fixtures with
//
//	go test ./internal/core/dstest -run Conformance -update
//
// after changing the generator specs (never to paper over a structure
// that stopped conforming — the expectations encode the contract).
func Conformance(t *testing.T, mk Factory) {
	fixtures, err := LoadFixtures()
	if err != nil {
		t.Fatalf("loading conformance fixtures: %v", err)
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.Name, func(t *testing.T) { runFixture(t, mk, fx) })
	}
}

func runFixture(t *testing.T, mk Factory, fx Fixture) {
	var eliminated atomic.Int64
	opts := core.Options[int64]{Places: fx.Places, Seed: 1, Less: less}
	if fx.StaleMod > 0 {
		mod := fx.StaleMod
		opts.Stale = func(v int64) bool { return v%mod == 0 }
		opts.OnEliminate = func(int, int64) { eliminated.Add(1) }
	}
	d := mustNew(t, mk, opts)
	for si, seg := range fx.Segments {
		elimBase := eliminated.Load()
		for _, p := range seg.Pushes {
			d.Push(p.P, fx.K, p.V)
		}
		got := drainAllPlaces(d, fx.Places, ConformancePatience)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(seg.ExpectDrained) {
			t.Fatalf("segment %d drained %d tasks, fixture expects %d",
				si, len(got), len(seg.ExpectDrained))
		}
		for i := range got {
			if got[i] != seg.ExpectDrained[i] {
				t.Fatalf("segment %d drained multiset diverges at index %d: got %d, want %d",
					si, i, got[i], seg.ExpectDrained[i])
			}
		}
		if d := eliminated.Load() - elimBase; d != seg.ExpectEliminated {
			t.Fatalf("segment %d eliminated %d stale tasks, fixture expects %d",
				si, d, seg.ExpectEliminated)
		}
	}
	st := d.Stats()
	var pushed int64
	for _, seg := range fx.Segments {
		pushed += int64(len(seg.Pushes))
	}
	if st.Pushes != pushed {
		t.Fatalf("Stats.Pushes = %d, fixture pushed %d", st.Pushes, pushed)
	}
	if st.Pops+st.Eliminated != pushed {
		t.Fatalf("item-flow equation broken: Pops %d + Eliminated %d != Pushes %d",
			st.Pops, st.Eliminated, pushed)
	}
}

// drainAllPlaces empties the structure by popping round-robin over all
// places, tolerating up to patience consecutive failures so spurious
// misses retry while real emptiness terminates.
func drainAllPlaces(d core.DS[int64], places, patience int) []int64 {
	var out []int64
	fails := 0
	for place := 0; fails < patience; place = (place + 1) % places {
		if v, ok := d.Pop(place); ok {
			out = append(out, v)
			fails = 0
		} else {
			fails++
		}
	}
	return out
}

// fixtureSpec is one generator entry: GenerateFixtures expands it into
// a Fixture with explicit pushes and contract-derived expectations.
type fixtureSpec struct {
	name        string
	description string
	places      int
	k           int
	staleMod    int64
	segments    int
	pushesPer   int
	valueRange  int64
	seed        uint64
}

// conformanceSpecs is the committed fixture set. Adding a spec (or
// changing one) requires regenerating with -update; the JSON on disk is
// the contract of record, reviewed like code.
var conformanceSpecs = []fixtureSpec{
	{
		name:        "single-place-churn",
		description: "one place, small k: repeated fill/drain cycles against a lone local component",
		places:      1, k: 16, segments: 3, pushesPer: 300, valueRange: 1000, seed: 101,
	},
	{
		name:        "multi-place-wide-domain",
		description: "four places, paper-default k over the full 2^20 priority domain",
		places:      4, k: 512, segments: 2, pushesPer: 800, valueRange: 1 << 20, seed: 202,
	},
	{
		name:        "stale-thirds",
		description: "every third value is stale: lazy elimination must retire all of them before a drain observes empty",
		places:      2, k: 64, staleMod: 3, segments: 2, pushesPer: 600, valueRange: 5000, seed: 303,
	},
	{
		name:        "duplicate-values",
		description: "sixteen distinct values, heavy duplication: exactly-once is a multiset property, not a set property",
		places:      2, k: 32, segments: 2, pushesPer: 400, valueRange: 16, seed: 404,
	},
	{
		name:        "many-places-bursts",
		description: "eight places, four short burst/drain rounds: cross-place visibility after each refill",
		places:      8, k: 128, segments: 4, pushesPer: 250, valueRange: 1 << 16, seed: 505,
	},
}

// GenerateFixtures expands the committed specs into fixtures. The
// expectations are computed from the contract (sorted live values,
// stale counts), never by running a data structure — a generated
// fixture certifies implementations, it does not canonize one.
func GenerateFixtures() []Fixture {
	out := make([]Fixture, 0, len(conformanceSpecs))
	for _, sp := range conformanceSpecs {
		rng := xrand.New(sp.seed)
		fx := Fixture{
			V:           ConformanceVersion,
			Name:        sp.name,
			Description: sp.description,
			Places:      sp.places,
			K:           sp.k,
			StaleMod:    sp.staleMod,
		}
		for s := 0; s < sp.segments; s++ {
			seg := FixtureSegment{ExpectDrained: []int64{}}
			for i := 0; i < sp.pushesPer; i++ {
				p := FixturePush{
					P: rng.Intn(sp.places),
					V: int64(rng.Uint64n(uint64(sp.valueRange))),
				}
				seg.Pushes = append(seg.Pushes, p)
				if sp.staleMod > 0 && p.V%sp.staleMod == 0 {
					seg.ExpectEliminated++
				} else {
					seg.ExpectDrained = append(seg.ExpectDrained, p.V)
				}
			}
			sort.Slice(seg.ExpectDrained, func(i, j int) bool {
				return seg.ExpectDrained[i] < seg.ExpectDrained[j]
			})
			fx.Segments = append(fx.Segments, seg)
		}
		out = append(out, fx)
	}
	return out
}
