package main

import "testing"

// Expected values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs) for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
		med  float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}, 5.5},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}, 1.5},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}, 2},
		{[]float64{2.5, 1, 7, 4, 9, 3}, [3]float64{2.125, 3.5, 7.5}, 3.5},
		{[]float64{5}, [3]float64{5, 5, 5}, 5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
		if got := median(c.in); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.med)
		}
	}
}

func TestMean(t *testing.T) {
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := mean(nil); got != 0 {
		t.Errorf("mean of nothing = %v, want 0", got)
	}
}

func TestSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v, want 0", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	quartiles(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("helpers reordered their input: %v", in)
	}
}
