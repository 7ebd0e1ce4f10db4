package main

import (
	"reflect"
	"testing"
	"time"
)

var testChurn = churnParams{rate: 40, hold: 1500 * time.Millisecond, period: 500 * time.Millisecond,
	length: 10 * time.Second, tenants: 50, maxNFs: 4}

func TestChurnPlanIsSeeded(t *testing.T) {
	a, b := planChurn(7, testChurn), planChurn(7, testChurn)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different churn plans")
	}
	c := planChurn(8, testChurn)
	if reflect.DeepEqual(a.ops, c.ops) || reflect.DeepEqual(a.specs, c.specs) {
		t.Fatal("seeds 7 and 8 gave the same schedule or specs")
	}
}

func TestChurnPlanShape(t *testing.T) {
	p := planChurn(3, testChurn)
	if p.resident != 60 {
		t.Fatalf("resident fleet %d, want rate*hold = 60", p.resident)
	}
	provisioned := map[int]time.Duration{}
	var arrivals, scrapes int
	for i, op := range p.ops {
		if i > 0 && op.due < p.ops[i-1].due {
			t.Fatalf("op %d due %v before op %d due %v", i, op.due, i-1, p.ops[i-1].due)
		}
		if op.due < 0 || op.due >= testChurn.length {
			t.Fatalf("op %d due %v outside the run", i, op.due)
		}
		switch op.kind {
		case opProvision:
			arrivals++
			provisioned[op.chain] = op.due
		case opGet, opDelete:
			if op.chain >= p.resident {
				at, ok := provisioned[op.chain]
				if !ok || op.due < at {
					t.Fatalf("%v of chain %d before its provision", op.kind, op.chain)
				}
			}
		case opScrape:
			scrapes++
		}
	}
	// Poisson arrivals at 40/s over 10 s: 400 expected, well inside
	// five standard deviations (100).
	if arrivals < 300 || arrivals > 500 {
		t.Fatalf("%d arrivals in 10 s at 40/s", arrivals)
	}
	if scrapes != 19 {
		t.Fatalf("%d scrapes, want one per 500 ms after the start", scrapes)
	}
	if len(p.specs) != p.resident+arrivals {
		t.Fatalf("%d specs for %d resident and %d arriving chains", len(p.specs), p.resident, arrivals)
	}
}

func TestSpecMixDraws(t *testing.T) {
	mix := newSpecMix(50, 4)
	a, b, c := newRand(1), newRand(1), newRand(2)
	same := true
	services := map[string]bool{}
	for i := 0; i < 500; i++ {
		x, y, z := mix.draw(a, "x"), mix.draw(b, "x"), mix.draw(c, "x")
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("draw %d differs under the same seed", i)
		}
		same = same && reflect.DeepEqual(x, z)
		services[x.Service] = true
		if n := len(x.NFs); n < 1 || n > 4 {
			t.Fatalf("draw %d has %d NFs", i, n)
		}
		seen := map[string]bool{}
		for _, nf := range x.NFs {
			if seen[nf.Name] {
				t.Fatalf("draw %d repeats NF %s", i, nf.Name)
			}
			seen[nf.Name] = true
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 drew the same specs")
	}
	if len(services) != len(mix.services) {
		t.Fatalf("500 draws covered %d of %d services", len(services), len(mix.services))
	}
}

func TestOnboardFillsAreSeeded(t *testing.T) {
	a, b, c := newOnboard(5, time.Second, false), newOnboard(5, time.Second, false), newOnboard(6, time.Second, false)
	for i := 0; i < 3; i++ {
		fa, fb, fc := a.nextFill(), b.nextFill(), c.nextFill()
		if !reflect.DeepEqual(fa, fb) {
			t.Fatalf("fill %d differs under the same seed", i)
		}
		if reflect.DeepEqual(fa, fc) {
			t.Fatalf("fill %d is the same under seeds 5 and 6", i)
		}
		if len(fa) != onboardFleet {
			t.Fatalf("fill %d has %d specs", i, len(fa))
		}
	}
}
