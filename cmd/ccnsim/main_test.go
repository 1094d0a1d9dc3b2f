package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestParsePolicy(t *testing.T) {
	tests := []struct {
		in      string
		want    string
		wantErr bool
	}{
		{"coordinated", "coordinated", false},
		{"coord", "coordinated", false},
		{"non-coordinated", "non-coordinated", false},
		{"nc", "non-coordinated", false},
		{"lru", "lru", false},
		{"lfu", "lfu", false},
		{"bogus", "", true},
	}
	for _, tt := range tests {
		got, err := parsePolicy(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("parsePolicy(%q) error = %v", tt.in, err)
			continue
		}
		if err == nil && got.String() != tt.want {
			t.Errorf("parsePolicy(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseFailSpec(t *testing.T) {
	const n = 10
	valid := []struct {
		in   string
		want int // events
	}{
		{"", 0},
		{"3@500", 1},
		{"3@500-2000", 2},
		{"3@500-2000, 7@100", 3},
	}
	for _, tt := range valid {
		events, err := parseFailSpec(tt.in, n)
		if err != nil {
			t.Errorf("parseFailSpec(%q) error: %v", tt.in, err)
			continue
		}
		if len(events) != tt.want {
			t.Errorf("parseFailSpec(%q) = %d events, want %d", tt.in, len(events), tt.want)
		}
	}
	invalid := []string{
		"3",          // missing @start
		"x@500",      // bad router id
		"12@500",     // unknown router
		"-1@500",     // negative router
		"3@-5",       // negative start
		"3@500-400",  // end before start
		"3@500-500",  // empty window
		"3@500-oops", // bad end time
		"3@NaN-200",  // NaN start
		"3@100-NaN",  // NaN end
		"3@Inf",      // a crash that never fires
		"3@-Inf-200", // infinite start
		"3@100-Inf",  // infinite end
	}
	for _, in := range invalid {
		if _, err := parseFailSpec(in, n); err == nil {
			t.Errorf("parseFailSpec(%q) passed, want error", in)
		}
	}
}

func TestRunRejectsBadFaultConfig(t *testing.T) {
	// run validates the fault flags before simulating; every case here
	// must error out early.
	cases := []struct {
		name       string
		mtbf, mttr float64
		fail       string
	}{
		{"negative mtbf", -1, 100, ""},
		{"negative mttr", 100, -1, ""},
		{"mtbf without mttr", 100, 0, ""},
		{"mttr without mtbf", 0, 100, ""},
		{"NaN mtbf", math.NaN(), 100, ""},
		{"infinite mttr", 100, math.Inf(1), ""},
		{"fail on unknown node", 0, 0, "999@100"},
		{"malformed fail spec", 0, 0, "1:100"},
	}
	for _, tc := range cases {
		err := run("Abilene", "coordinated", 1000, 0.8, 50, 25, 10, 0, 1, 5, 60, -1, 0, 300,
			tc.mtbf, tc.mttr, 1, tc.fail, chaosOpts{}, 0, obsFlags{})
		if err == nil {
			t.Errorf("%s: run accepted the config, want error", tc.name)
		}
	}
}

func TestFindTopology(t *testing.T) {
	for _, name := range []string{"Abilene", "CERNET", "GEANT", "US-A"} {
		g, err := findTopology(name)
		if err != nil || g.Name() != name {
			t.Errorf("findTopology(%q) = %v, %v", name, g, err)
		}
	}
	if _, err := findTopology("nope"); err == nil {
		t.Error("unknown topology should fail")
	}
}

func TestChaosOptsLoad(t *testing.T) {
	// Empty spec: chaos off.
	if c, err := (chaosOpts{}).load(); err != nil || c != nil {
		t.Errorf("empty spec: %v, %v; want nil, nil", c, err)
	}
	// A preset name resolves.
	c, err := (chaosOpts{spec: "coord-crash"}).load()
	if err != nil || c == nil || c.Name != "coord-crash" {
		t.Errorf("preset: %v, %v", c, err)
	}
	// An unknown name fails with the preset list in the message.
	if _, err := (chaosOpts{spec: "no-such-preset"}).load(); err == nil {
		t.Error("unknown preset accepted")
	}
	// An existing file is parsed as a scenario document.
	dir := t.TempDir()
	path := filepath.Join(dir, "my.json")
	doc := `{"name": "mine", "coordinator": [{"down": 100, "up": 200}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err = (chaosOpts{spec: path}).load()
	if err != nil || c == nil || c.Name != "mine" {
		t.Errorf("file: %v, %v", c, err)
	}
	// An existing but invalid file fails rather than falling back to
	// preset lookup.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name": "x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := (chaosOpts{spec: bad}).load(); err == nil {
		t.Error("invalid scenario file accepted")
	}
}

func TestRunRejectsChaosFlagMisuse(t *testing.T) {
	cases := []struct {
		name   string
		chaosf chaosOpts
	}{
		{"checkpoint without chaos", chaosOpts{checkpoint: "x.json"}},
		{"staleness without chaos", chaosOpts{staleness: 100}},
		{"unknown chaos spec", chaosOpts{spec: "definitely-not-a-preset"}},
	}
	for _, tc := range cases {
		err := run("Abilene", "coordinated", 1000, 0.8, 50, 25, 10, 0, 1, 5, 60, -1, 0, 300,
			0, 0, 1, "", tc.chaosf, 0, obsFlags{})
		if err == nil {
			t.Errorf("%s: run accepted the config, want error", tc.name)
		}
	}
}
