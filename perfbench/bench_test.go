package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"
)

// TestTablesMatchBenchmarkJSON keeps the metric tables and workload list in
// this program in step with BENCHMARK.json at the repository root.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []named, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	known := map[string]bool{}
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, w := range spec.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}

// TestMatchInputsSolvable checks that every generated query is answered
// correctly by the server's own pose pipeline, run in-process.
func TestMatchInputsSolvable(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		set, err := newMatchSet(seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(set.ref) != refFeatures || len(set.queries) != matchInputs {
			t.Fatalf("seed %d: %d reference features, %d queries", seed, len(set.ref), len(set.queries))
		}
		io := set.io()
		h := &harness{}
		handle := set.handler(h)
		req := make([]byte, io.size)
		for in := range set.queries {
			io.fill(req, uint64(in+1), in)
			if ok, _ := io.check(in, req, handle(methodMatch, req)); !ok {
				t.Errorf("seed %d query %d: wrong answer", seed, in)
			}
		}
	}
}

// TestLatLogQuantiles checks the bucketed latency record against exact
// nearest-rank quantiles: within one bucket (1%) of the true value.
func TestLatLogQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := newLatLog(3 * time.Second)
	var all []float64
	bySec := make([][]float64, 3)
	for i := 0; i < 30000; i++ {
		d := time.Duration(math.Exp(rng.NormFloat64()*0.6) * float64(2*time.Millisecond))
		sec := i % 4 // 3: outside the window
		if sec == 3 {
			sec = -1
		} else {
			bySec[sec] = append(bySec[sec], ms(d))
		}
		l.add(sec, d, d <= budget)
		all = append(all, ms(d))
	}
	near := func(what string, got, want float64) {
		if math.Abs(got/want-1) > 0.01 {
			t.Errorf("%s: got %.4f ms, exact %.4f ms", what, got, want)
		}
	}
	near("p50", l.quantile(0.5), quantile(all, 0.5))
	var p99s []float64
	for s, xs := range bySec {
		p99s = append(p99s, quantile(xs, 0.99))
		if n := l.secCalls()[s]; n != int64(len(xs)) {
			t.Errorf("second %d: %d calls, want %d", s, n, len(xs))
		}
	}
	near("per-second p99", l.p99PerSecond(), median(p99s))
}
