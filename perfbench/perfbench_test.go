package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestCheckBitsCatchesOneBit(t *testing.T) {
	want := []float64{1, -0.5, 0}
	got := append([]float64(nil), want...)
	if err := checkBits("x", got, want); err != nil {
		t.Fatalf("identical values rejected: %v", err)
	}
	got[1] = math.Nextafter(got[1], 0)
	if checkBits("x", got, want) == nil {
		t.Fatal("a one-ulp difference passed the bit-exact check")
	}
	got[1], got[2] = want[1], math.Copysign(0, -1)
	if checkBits("x", got, want) == nil {
		t.Fatal("-0 passed as +0")
	}
	if checkClose("x", []float64{1, math.NaN()}, []float64{1, 0}, 1) == nil {
		t.Fatal("NaN passed the tolerance check")
	}
}

// runTampered runs a short measured phase of workload with tamper
// corrupting results, and returns the exit code and the result line.
func runTampered(t *testing.T, workload string, tamper func(workload)) (int, result) {
	t.Helper()
	var out bytes.Buffer
	code := run(config{workload: workload, seed: 3, seconds: 0.3, tamper: tamper}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return code, res
}

// Every workload prints every end-to-end metric BENCHMARK.json lists,
// with its unit, and never 0.
func TestCleanRunsAreCorrect(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"compact-batch", "serve-small", "queue-fused"} {
		code, res := runTampered(t, w, nil)
		// Failed ops are not asserted: under the race detector the server
		// is too slow for serve-small's open loop and misses deadlines.
		if code != 0 || !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: exit %d, %+v", w, code, res)
		}
		if len(res.Metrics) != len(bench.EndToEnd) {
			t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", w, len(res.Metrics), len(bench.EndToEnd))
		}
		for _, e := range bench.EndToEnd {
			if v, ok := res.Metrics[e.Name]; !ok || !(v.Value > 0) || v.Unit != e.Unit {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", w, e.Name, v, e.Unit)
			}
		}
	}
}

// Each workload's oracle must catch a corrupted result and fail the
// command.
func TestCorruptedResultFailsTheCommand(t *testing.T) {
	ctx := context.Background()
	cases := map[string]func(workload){
		// A GEMM recomputed with α = 2 into a compact-batch output.
		"compact-batch": func(w workload) {
			cb := w.(*compactBatch)
			cb.tamper = func(items []batchItem) {
				g := items[0].(*gemmItem[float32])
				if err := do(ctx, cb.t, gemmReq(false, false, 2, g.A, g.B, 0, g.C), nil); err != nil {
					t.Error(err)
				}
			}
		},
		// One digit of a response's result changed on the wire.
		"serve-small": func(w workload) {
			w.(*serveSmall).tamper = func(res []byte) {
				for i, c := range res {
					if c >= '1' && c <= '8' {
						res[i] = c + 1
						return
					}
				}
			}
		},
		// A fused GEMM's output overwritten by a different product.
		"queue-fused": func(w workload) {
			oracle, _ := newEngineTarget()
			w.(*queueFused).tamper = func(s *fusedSlot) {
				if s.chain {
					return
				}
				if err := do(ctx, oracle, gemmReq(false, false, float32(2), s.A32, s.B32, 0, s.C32), nil); err != nil {
					t.Error(err)
				}
			}
		},
	}
	for name, tamper := range cases {
		code, res := runTampered(t, name, tamper)
		if code == 0 || res.Correct || res.Failed == 0 || res.Metrics["ok_ratio"].Value >= 1 {
			t.Errorf("%s: corruption not caught: exit %d, %+v", name, code, res)
		}
	}
}
