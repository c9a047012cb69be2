// Package metrics provides the streaming statistics the Monte Carlo driver
// and the experiments use: Welford mean/variance, binomial proportion
// estimates with 95% confidence intervals (Figure 7's error bars), and
// fixed-width histograms.
package metrics

import (
	"errors"
	"math"
	"sort"
)

// Welford accumulates mean and variance in one pass, numerically stably.
// The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean (0 for no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation (0 for none).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 for none).
func (w *Welford) Max() float64 { return w.max }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// z95 is the two-sided 95% normal quantile.
const z95 = 1.959963984540054

// CI95 returns the 95% confidence half-width for the mean (normal
// approximation, appropriate at the run counts the experiments use).
func (w *Welford) CI95() float64 { return z95 * w.StdErr() }

// Merge folds another accumulator into this one (parallel reduction).
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}

// Proportion estimates a probability from Bernoulli trials — the
// probability of data loss over Monte Carlo runs.
type Proportion struct {
	Successes int
	Trials    int
}

// Add records one trial.
func (p *Proportion) Add(success bool) {
	p.Trials++
	if success {
		p.Successes++
	}
}

// Merge folds another accumulator into this one (parallel reduction).
// Integer counts make the merge exact and order-independent, unlike
// Welford.Merge.
func (p *Proportion) Merge(o *Proportion) {
	p.Successes += o.Successes
	p.Trials += o.Trials
}

// Estimate returns the point estimate successes/trials (0 for no trials).
func (p *Proportion) Estimate() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// Wilson95 returns the Wilson score 95% interval (lo, hi), which behaves
// sensibly at the extremes (0 or all losses) where the Wald interval
// collapses. The interval always contains the estimate: rounding in
// center ± half can leave lo a hair above 0 when no trial succeeded, or
// hi a hair below 1 when every trial did, so the ends are clamped to
// [0, p̂] and [p̂, 1].
func (p *Proportion) Wilson95() (lo, hi float64) {
	if p.Trials == 0 {
		return 0, 1
	}
	n := float64(p.Trials)
	ph := p.Estimate()
	z2 := z95 * z95
	den := 1 + z2/n
	center := (ph + z2/(2*n)) / den
	half := z95 * math.Sqrt(ph*(1-ph)/n+z2/(4*n*n)) / den
	lo = math.Max(0, math.Min(center-half, ph))
	hi = math.Min(1, math.Max(center+half, ph))
	return lo, hi
}

// Histogram is a fixed-width histogram over [Lo, Hi) with out-of-range
// counters.
type Histogram struct {
	Lo, Hi  float64
	Buckets []int
	Under   int
	Over    int
	count   int
}

// ErrHistogram reports an invalid histogram specification.
var ErrHistogram = errors.New("metrics: invalid histogram")

// NewHistogram builds a histogram with n equal buckets over [lo, hi).
func NewHistogram(lo, hi float64, n int) (*Histogram, error) {
	if n <= 0 || hi <= lo {
		return nil, ErrHistogram
	}
	return &Histogram{Lo: lo, Hi: hi, Buckets: make([]int, n)}, nil
}

// Add bins one observation.
func (h *Histogram) Add(x float64) {
	h.count++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Buckets)))
		if i == len(h.Buckets) { // guard fp edge
			i--
		}
		h.Buckets[i]++
	}
}

// Count returns total observations including out-of-range ones.
func (h *Histogram) Count() int { return h.count }

// P2Quantile is a streaming quantile estimator using the P² algorithm
// (Jain & Chlamtac, CACM 1985): five markers track the target quantile
// with O(1) memory and O(1) deterministic update cost, no allocation
// after construction. It is the cluster-median estimator of the
// straggler detector and the per-run rebuild-time tail (P50/P99)
// accumulator — places where storing every observation would break the
// simulator's allocation-free steady state.
//
// The estimate is exact for the first five observations (it falls back
// to the sorted prefix) and an interpolated approximation afterwards;
// for the smooth unimodal distributions the detector sees, the error is
// well under the 2–4× discrimination thresholds it feeds.
type P2Quantile struct {
	q       float64    // target quantile in (0, 1)
	heights [5]float64 // marker heights q0..q4
	pos     [5]float64 // actual marker positions (1-based counts)
	want    [5]float64 // desired marker positions
	dWant   [5]float64 // desired-position increments per observation
	n       int
}

// NewP2 returns a streaming estimator of the q-quantile. q outside
// (0, 1) is clamped to the nearest meaningful value.
func NewP2(q float64) P2Quantile {
	if !(q > 0) { // also catches NaN
		q = 0.5
	}
	if q >= 1 {
		q = 1 - 1e-9
	}
	p := P2Quantile{q: q}
	p.want = [5]float64{1, 1 + 2*q, 1 + 4*q, 3 + 2*q, 5}
	p.dWant = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return p
}

// Q returns the target quantile.
func (p *P2Quantile) Q() float64 { return p.q }

// N returns the number of observations.
func (p *P2Quantile) N() int { return p.n }

// Add incorporates one observation.
func (p *P2Quantile) Add(x float64) {
	if p.dWant[4] == 0 {
		// Zero value used directly; behave as a median estimator.
		*p = NewP2(0.5)
	}
	if p.n < 5 {
		// Insertion sort into the initial marker set.
		i := p.n
		for i > 0 && p.heights[i-1] > x {
			p.heights[i] = p.heights[i-1]
			i--
		}
		p.heights[i] = x
		p.n++
		if p.n == 5 {
			p.pos = [5]float64{1, 2, 3, 4, 5}
		}
		return
	}
	p.n++
	// Locate the cell containing x and clamp the extremes.
	var k int
	switch {
	case x < p.heights[0]:
		p.heights[0] = x
		k = 0
	case x >= p.heights[4]:
		p.heights[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < p.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	for i := 0; i < 5; i++ {
		p.want[i] += p.dWant[i]
	}
	// Adjust interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := p.want[i] - p.pos[i]
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1
			}
			h := p.parabolic(i, s)
			if p.heights[i-1] < h && h < p.heights[i+1] {
				p.heights[i] = h
			} else {
				p.heights[i] = p.linear(i, s)
			}
			p.pos[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker i by d (±1).
func (p *P2Quantile) parabolic(i int, d float64) float64 {
	return p.heights[i] + d/(p.pos[i+1]-p.pos[i-1])*
		((p.pos[i]-p.pos[i-1]+d)*(p.heights[i+1]-p.heights[i])/(p.pos[i+1]-p.pos[i])+
			(p.pos[i+1]-p.pos[i]-d)*(p.heights[i]-p.heights[i-1])/(p.pos[i]-p.pos[i-1]))
}

// linear is the fallback height prediction.
func (p *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return p.heights[i] + d*(p.heights[j]-p.heights[i])/(p.pos[j]-p.pos[i])
}

// Value returns the current quantile estimate (0 with no observations).
// With fewer than five observations it interpolates the sorted prefix
// exactly, so small samples are not biased by marker initialisation.
func (p *P2Quantile) Value() float64 {
	switch {
	case p.n == 0:
		return 0
	case p.n < 5:
		pos := p.q * float64(p.n-1)
		i := int(pos)
		if i >= p.n-1 {
			return p.heights[p.n-1]
		}
		frac := pos - float64(i)
		return p.heights[i]*(1-frac) + p.heights[i+1]*frac
	default:
		return p.heights[2]
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) of a sample, interpolating
// between order statistics. It sorts a copy; fine for experiment-sized
// samples.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i]*(1-frac) + s[i+1]*frac
}
