package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func seq(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[i] = float64(n - i) // descending: percentile must sort
	}
	return s
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{0, 0.5, 0, false},
		{19, 0.5, 0, false}, // rank 10 of 19: 9 above
		{20, 0.5, 10, true}, // rank 10 of 20: 10 above
		{99, 0.9, 0, false}, // rank 90 of 99, 9 above
		{100, 0.9, 90, true},
		{1000, 0.9, 900, true},
		{5, 0.9, 0, false},
	} {
		got, ok := seq(c.n).percentile(c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("n=%d p=%g: got (%g, %v), want (%g, %v)", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestMinSamplesIsTheResolutionThreshold(t *testing.T) {
	for _, p := range []float64{0.5, 0.9, 0.99} {
		n := minSamples(p)
		if _, ok := seq(n).percentile(p); !ok {
			t.Errorf("p=%g: not resolved at minSamples=%d", p, n)
		}
		if _, ok := seq(n - 1).percentile(p); ok {
			t.Errorf("p=%g: already resolved at %d < minSamples", p, n-1)
		}
	}
	if got := minSamples(0.9); got != 100 {
		t.Errorf("minSamples(0.9) = %d, want 100", got)
	}
}

func TestPercentileDoesNotReorderInput(t *testing.T) {
	s := samples{3, 1, 2}
	s.percentile(0.5)
	if s[0] != 3 || s[1] != 1 || s[2] != 2 {
		t.Errorf("input reordered: %v", s)
	}
}

func TestMean(t *testing.T) {
	if m := (samples{}).mean(); m != 0 {
		t.Errorf("mean of nothing = %g", m)
	}
	if m := (samples{1, 2, 6}).mean(); m != 3 {
		t.Errorf("mean = %g, want 3", m)
	}
}

func TestRatioPrintsItsBase(t *testing.T) {
	r := ratio{12, 8, "step_ms_p50@1proc", "step_ms_p50@2proc"}
	if r.value() != 1.5 {
		t.Errorf("value = %g", r.value())
	}
	s := r.String()
	for _, want := range []string{"step_ms_p50@1proc 12", "step_ms_p50@2proc 8"} {
		if !strings.Contains(s, want) {
			t.Errorf("%q lacks %q", s, want)
		}
	}
	if (ratio{num: 1}).value() != 0 {
		t.Error("zero base must not divide")
	}
}

// TestBenchmarkJSONMatchesMetrics: BENCHMARK.json declares exactly the
// metrics and workloads this program reports, in order, with their units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(declared, ",") {
		t.Errorf("workloads: program %v, BENCHMARK.json %v", names, declared)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
