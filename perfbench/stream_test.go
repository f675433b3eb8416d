package main

import (
	"reflect"
	"testing"

	"dpmr/internal/harness"
)

func TestStreamDeterministicPerSeed(t *testing.T) {
	for _, w := range []string{"campaign", "concurrent", "fleet"} {
		a, err := stream(w, 7, 120)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := stream(w, 7, 120)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two streams of seed 7 differ", w)
		}
		// A shorter run executes a prefix of a longer one.
		short, _ := stream(w, 7, 50)
		if !reflect.DeepEqual(short, a[:50]) {
			t.Errorf("%s: 50-spec stream is not a prefix of the 120-spec stream", w)
		}
		c, _ := stream(w, 8, 120)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w)
		}
		for i, s := range a {
			if _, err := s.Normalized(); err != nil {
				t.Fatalf("%s spec %d: %v", w, i, err)
			}
		}
	}
}

func TestFleetStreamFingerprintsDistinct(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		specs, err := stream("fleet", seed, 400)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]int)
		for i, s := range specs {
			if s.Kind != harness.SpecCampaign {
				t.Fatalf("seed %d spec %d: fleet streams hold campaign specs, got %s", seed, i, s.Kind)
			}
			fp, err := s.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if j, dup := seen[fp]; dup {
				t.Fatalf("seed %d: specs %d and %d share fingerprint %.12s", seed, j, i, fp)
			}
			seen[fp] = i
		}
	}
}

func TestStreamStrata(t *testing.T) {
	specs, _ := stream("campaign", 3, 200)
	overhead := 0
	for _, s := range specs {
		if s.Kind == harness.SpecOverhead {
			overhead++
		}
	}
	// Every round of 20 holds four overhead measurements.
	if roundSize["campaign"] != 20 || overhead != 40 {
		t.Errorf("%d overhead specs in 200, want 40", overhead)
	}
	if roundSize["concurrent"] != 9 || roundSize["fleet"] != 16 {
		t.Errorf("round sizes %v", roundSize)
	}
	conc, _ := stream("concurrent", 3, 90)
	per := make(map[string]int)
	for _, s := range conc {
		per[s.Workloads[0]]++
		if s.Runs < 2 || len(s.Variants) != 2 || s.Variants[0] != (harness.VariantSpec{}) {
			t.Errorf("concurrent spec %+v: want stdapp plus one DPMR variant over at least 2 runs", s)
		}
	}
	for _, name := range []string{"chash", "cpipe", "csteal"} {
		if per[name] != 30 {
			t.Errorf("%s: %d of 90 concurrent specs, want 30", name, per[name])
		}
	}
}
