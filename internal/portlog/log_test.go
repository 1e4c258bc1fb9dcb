package portlog

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// amd64Only skips where math.Log is not amd64's assembly: the scores
// were computed with it, and Log must return its bits.
func amd64Only(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("math.Log on %s is not the assembly the scores were pinned with", runtime.GOARCH)
	}
}

// same reports whether a and b are the same float64, bit for bit.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestLogMatchesMathOnTF holds Log to math.Log on every term frequency
// up to 2²⁰: Eq 7's weight numerator log(TF) + 1.
func TestLogMatchesMathOnTF(t *testing.T) {
	amd64Only(t)
	for tf := 1; tf <= 1<<20; tf++ {
		if x := float64(tf); !same(Log(x), math.Log(x)) {
			t.Fatalf("Log(%d) = %x, math.Log %x", tf, math.Float64bits(Log(x)), math.Float64bits(math.Log(x)))
		}
	}
}

// TestLogMatchesMathOnIDF holds Log to math.Log on 10⁷ random Eq 9
// arguments (n − df + 0.5) / (df + 0.5), for collections of up to 2²⁴
// units, a tenth of them up to 2¹⁰; 10⁵ under -short.
func TestLogMatchesMathOnIDF(t *testing.T) {
	amd64Only(t)
	runs := 10_000_000
	if testing.Short() {
		runs = 100_000
	}
	rng := rand.New(rand.NewSource(9))
	for i := range runs {
		top := 1 << 24
		if i%10 == 0 {
			top = 1 << 10
		}
		n := 1 + rng.Intn(top)
		df := 1 + rng.Intn(n)
		x := (float64(n-df) + 0.5) / (float64(df) + 0.5)
		if !same(Log(x), math.Log(x)) {
			t.Fatalf("Log(%v) (n %d, df %d) = %x, math.Log %x", x, n, df, math.Float64bits(Log(x)), math.Float64bits(math.Log(x)))
		}
	}
}

// TestLog10MatchesMathOnShannon holds Log10 to math.Log10 on every
// argument the Shannon index can pass for tables of up to 4 096
// observations: k/n for 1 ≤ k ≤ n ≤ 4 096.
func TestLog10MatchesMathOnShannon(t *testing.T) {
	amd64Only(t)
	top := 4096
	if testing.Short() {
		top = 512
	}
	for n := 1; n <= top; n++ {
		for k := 1; k <= n; k++ {
			p := float64(k) / float64(n)
			if !same(Log10(p), math.Log10(p)) {
				t.Fatalf("Log10(%d/%d) = %x, math.Log10 %x", k, n, math.Float64bits(Log10(p)), math.Float64bits(math.Log10(p)))
			}
		}
	}
}

// TestLog2MatchesMath holds Log2 to math.Log2 on random probabilities
// and their ratios, the arguments of the LDA baseline's Jensen–Shannon
// divergence, and on powers of two.
func TestLog2MatchesMath(t *testing.T) {
	amd64Only(t)
	rng := rand.New(rand.NewSource(10))
	for range 1_000_000 {
		p, m := rng.Float64(), rng.Float64()
		for _, x := range []float64{p, p / m} {
			if !same(Log2(x), math.Log2(x)) {
				t.Fatalf("Log2(%v) = %x, math.Log2 %x", x, math.Float64bits(Log2(x)), math.Float64bits(math.Log2(x)))
			}
		}
	}
	for e := -1074; e <= 1023; e++ {
		if x := math.Ldexp(1, e); Log2(x) != float64(e) {
			t.Fatalf("Log2(2^%d) = %v", e, Log2(x))
		}
	}
}

// TestLogSpecialCases: math.Log's special cases, and values on both
// sides of the reduction's √2/2 cut and among subnormals, on any CPU.
func TestLogSpecialCases(t *testing.T) {
	for _, tc := range []struct{ x, want float64 }{
		{math.Inf(1), math.Inf(1)},
		{0, math.Inf(-1)},
		{math.Copysign(0, -1), math.Inf(-1)},
		{1, 0},
		{math.E, 1},
	} {
		if got := Log(tc.x); got != tc.want {
			t.Errorf("Log(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	for _, x := range []float64{-1, math.Inf(-1), math.NaN()} {
		if got := Log(x); !math.IsNaN(got) {
			t.Errorf("Log(%v) = %v, want NaN", x, got)
		}
	}
	for _, x := range []float64{math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0), math.SmallestNonzeroFloat64 * (1 << 52), math.MaxFloat64} {
		if got, want := Log(x), math.Log(x); math.Abs(got-want) > 1e-15*math.Abs(want) {
			t.Errorf("Log(%v) = %v, math.Log %v", x, got, want)
		}
	}
	// Subnormals, which no score passes: amd64's assembly math.Log
	// returns about −709 for all of them; the portable code is right.
	for _, x := range []float64{math.SmallestNonzeroFloat64, 1e-310} {
		if got, want := Log(x), Log(x*(1<<60))-60*math.Ln2; math.Abs(got-want) > 1e-13*math.Abs(want) {
			t.Errorf("Log(%v) = %v, want %v", x, got, want)
		}
	}
}
