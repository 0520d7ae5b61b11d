// Package quantile holds the one statistic the benchmark and benchdiff must
// compute exactly alike.
package quantile

import "sort"

// Quartiles mirrors Python's statistics.quantiles(vals, n=4) (the
// "exclusive" method), because that is what the acceptance driver uses to
// judge run-to-run spread. Fewer than two values collapse to that value.
func Quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
