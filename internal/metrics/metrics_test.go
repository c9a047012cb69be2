package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 || w.Variance() != 0 || w.CI95() != 0 {
		t.Fatal("zero value not clean")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", w.Mean())
	}
	// Sample variance of the classic dataset: population var is 4, sample
	// var is 32/7.
	if math.Abs(w.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("variance = %v, want %v", w.Variance(), 32.0/7)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordSingleObservation(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Mean() != 3.5 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Fatal("single observation stats wrong")
	}
}

func TestWelfordMatchesTwoPass(t *testing.T) {
	r := rng.New(1)
	xs := make([]float64, 5000)
	var w Welford
	sum := 0.0
	for i := range xs {
		xs[i] = r.Norm(10, 3)
		w.Add(xs[i])
		sum += xs[i]
	}
	mean := sum / float64(len(xs))
	ss := 0.0
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	variance := ss / float64(len(xs)-1)
	if math.Abs(w.Mean()-mean) > 1e-9 {
		t.Fatalf("mean %v vs %v", w.Mean(), mean)
	}
	if math.Abs(w.Variance()-variance) > 1e-9 {
		t.Fatalf("variance %v vs %v", w.Variance(), variance)
	}
}

func TestWelfordMerge(t *testing.T) {
	r := rng.New(2)
	var whole, a, b Welford
	for i := 0; i < 3000; i++ {
		x := r.Float64() * 100
		whole.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), whole.N())
	}
	if math.Abs(a.Mean()-whole.Mean()) > 1e-9 {
		t.Fatalf("merged mean %v vs %v", a.Mean(), whole.Mean())
	}
	if math.Abs(a.Variance()-whole.Variance()) > 1e-9 {
		t.Fatalf("merged variance %v vs %v", a.Variance(), whole.Variance())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatal("merged min/max wrong")
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(5)
	a.Merge(&b) // merging empty is a no-op
	if a.N() != 1 || a.Mean() != 5 {
		t.Fatal("merge with empty changed state")
	}
	b.Merge(&a) // merging into empty copies
	if b.N() != 1 || b.Mean() != 5 {
		t.Fatal("merge into empty wrong")
	}
}

func TestCI95Coverage(t *testing.T) {
	// The 95% CI for the mean of uniform(0,1) samples should contain 0.5
	// roughly 95% of the time.
	r := rng.New(3)
	hits := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		var w Welford
		for j := 0; j < 100; j++ {
			w.Add(r.Float64())
		}
		if math.Abs(w.Mean()-0.5) <= w.CI95() {
			hits++
		}
	}
	rate := float64(hits) / trials
	if rate < 0.90 || rate > 0.99 {
		t.Fatalf("CI95 coverage %v, want ~0.95", rate)
	}
}

func TestProportion(t *testing.T) {
	var p Proportion
	if p.Estimate() != 0 {
		t.Fatal("empty proportion estimate nonzero")
	}
	lo, hi := p.Wilson95()
	if lo != 0 || hi != 1 {
		t.Fatal("empty proportion CI should be [0,1]")
	}
	for i := 0; i < 100; i++ {
		p.Add(i < 30)
	}
	if p.Estimate() != 0.3 {
		t.Fatalf("estimate = %v", p.Estimate())
	}
	lo, hi = p.Wilson95()
	if lo >= 0.3 || hi <= 0.3 {
		t.Fatalf("CI [%v,%v] does not contain estimate", lo, hi)
	}
	if lo < 0.2 || hi > 0.42 {
		t.Fatalf("CI [%v,%v] implausibly wide for n=100", lo, hi)
	}
}

func TestWilsonAtExtremes(t *testing.T) {
	var p Proportion
	for i := 0; i < 50; i++ {
		p.Add(false)
	}
	lo, hi := p.Wilson95()
	if lo != 0 {
		t.Fatalf("all-failure lo = %v", lo)
	}
	if hi <= 0 || hi > 0.10 {
		t.Fatalf("all-failure hi = %v, want small positive", hi)
	}
	var q Proportion
	for i := 0; i < 50; i++ {
		q.Add(true)
	}
	lo, hi = q.Wilson95()
	if hi != 1 {
		t.Fatalf("all-success hi = %v", hi)
	}
	if lo >= 1 || lo < 0.9 {
		t.Fatalf("all-success lo = %v", lo)
	}
}

// TestWilsonContainsEstimateAtExtremes sweeps every campaign size up to
// 2000 at both extremes: the interval must contain p̂, with lo exactly 0
// when no trial succeeded and hi exactly 1 when every trial did.
func TestWilsonContainsEstimateAtExtremes(t *testing.T) {
	for n := 1; n <= 2000; n++ {
		for _, k := range []int{0, n} {
			p := Proportion{Successes: k, Trials: n}
			lo, hi := p.Wilson95()
			ph := p.Estimate()
			if !(lo <= ph && ph <= hi) {
				t.Errorf("k=%d n=%d: [%v, %v] excludes p̂=%v", k, n, lo, hi, ph)
			}
			if k == 0 && lo != 0 {
				t.Errorf("k=0 n=%d: lo = %v, want 0", n, lo)
			}
			if k == n && hi != 1 {
				t.Errorf("k=n=%d: hi = %v, want 1", n, hi)
			}
		}
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, 0, 1.9, 2, 5, 9.999, 10, 42} {
		h.Add(x)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Fatalf("under/over = %d/%d", h.Under, h.Over)
	}
	want := []int{2, 1, 1, 0, 1}
	for i, c := range want {
		if h.Buckets[i] != c {
			t.Fatalf("bucket %d = %d, want %d (buckets %v)", i, h.Buckets[i], c, h.Buckets)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("zero buckets accepted")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Error("empty range accepted")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile not NaN")
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.35); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("interpolated quantile = %v, want 3.5", got)
	}
}

// Property: Merge is equivalent to adding all observations to one
// accumulator, regardless of split.
func TestQuickMergeEquivalence(t *testing.T) {
	f := func(seed uint64, splitAt uint8) bool {
		r := rng.New(seed)
		n := 64
		split := int(splitAt) % n
		var whole, a, b Welford
		for i := 0; i < n; i++ {
			x := r.Norm(0, 5)
			whole.Add(x)
			if i < split {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(&b)
		return a.N() == whole.N() &&
			math.Abs(a.Mean()-whole.Mean()) < 1e-9 &&
			math.Abs(a.Variance()-whole.Variance()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestProportionMerge(t *testing.T) {
	var a, b, whole Proportion
	outcomes := []bool{true, false, false, true, true, false, false, false, true, false}
	for i, o := range outcomes {
		whole.Add(o)
		if i < 4 {
			a.Add(o)
		} else {
			b.Add(o)
		}
	}
	a.Merge(&b)
	if a != whole {
		t.Fatalf("merged proportion %+v, want %+v", a, whole)
	}
	// Merging an empty accumulator is a no-op.
	var empty Proportion
	before := a
	a.Merge(&empty)
	if a != before {
		t.Fatal("merge with empty changed the accumulator")
	}
}
