package stats

import "fmt"

// This file provides an external cluster-agreement index that tests use
// to score recovered clusterings against planted ground truth.

// AdjustedRandIndex returns the Rand index corrected for chance
// (Hubert & Arabie): 1 for identical partitions, ~0 for independent
// ones, negative for worse-than-chance agreement.
func AdjustedRandIndex(a, b []int) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("stats: labelings differ in length: %d vs %d", len(a), len(b))
	}
	n := len(a)
	if n < 2 {
		return 1, nil
	}
	// contingency counts
	labelsA := map[int]int{}
	labelsB := map[int]int{}
	for _, x := range a {
		if _, ok := labelsA[x]; !ok {
			labelsA[x] = len(labelsA)
		}
	}
	for _, x := range b {
		if _, ok := labelsB[x]; !ok {
			labelsB[x] = len(labelsB)
		}
	}
	ct := NewContingency(len(labelsA), len(labelsB))
	for i := 0; i < n; i++ {
		ct.Add(labelsA[a[i]], labelsB[b[i]], 1)
	}
	choose2 := func(x int) float64 { return float64(x) * float64(x-1) / 2 }
	sumCells := 0.0
	for r := 0; r < ct.Rows(); r++ {
		for c := 0; c < ct.Cols(); c++ {
			sumCells += choose2(ct.At(r, c))
		}
	}
	sumRows := 0.0
	for _, m := range ct.RowMarginals() {
		sumRows += choose2(m)
	}
	sumCols := 0.0
	for _, m := range ct.ColMarginals() {
		sumCols += choose2(m)
	}
	totalPairs := choose2(n)
	expected := sumRows * sumCols / totalPairs
	maxIndex := (sumRows + sumCols) / 2
	if maxIndex == expected {
		return 1, nil // both partitions trivial (all-one-cluster or all-singletons)
	}
	return (sumCells - expected) / (maxIndex - expected), nil
}
