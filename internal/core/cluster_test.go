package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// matrixDist wraps a symmetric matrix as a distance oracle.
func matrixDist(m [][]float64) func(i, j int) float64 {
	return func(i, j int) float64 { return m[i][j] }
}

func randomDistMatrix(r *rand.Rand, n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := r.Float64()
			m[i][j], m[j][i] = d, d
		}
	}
	return m
}

func TestSLINKTwoItems(t *testing.T) {
	m := [][]float64{{0, 0.5}, {0.5, 0}}
	d := SLINK(2, matrixDist(m))
	merges := d.Merges()
	if len(merges) != 1 || merges[0].Height != 0.5 {
		t.Fatalf("merges = %+v", merges)
	}
}

func TestSLINKKnownHierarchy(t *testing.T) {
	// Items 0,1 close (0.1); item 2 near them (0.3 to 1); item 3 far (0.9).
	m := [][]float64{
		{0, 0.1, 0.4, 0.9},
		{0.1, 0, 0.3, 0.95},
		{0.4, 0.3, 0, 0.92},
		{0.9, 0.95, 0.92, 0},
	}
	d := SLINK(4, matrixDist(m))
	merges := d.Merges()
	if len(merges) != 3 {
		t.Fatalf("got %d merges", len(merges))
	}
	if merges[0].Height != 0.1 || merges[1].Height != 0.3 || merges[2].Height != 0.9 {
		t.Fatalf("merge heights = %v %v %v", merges[0].Height, merges[1].Height, merges[2].Height)
	}
	// cut below 0.3: {0,1},{2},{3}
	cl := d.CutWithBudget(0.2, 4)
	if len(cl) != 3 || !eqIntSlice(cl[0], []int{0, 1}) {
		t.Fatalf("CutWithBudget(0.2) = %v", cl)
	}
	// cut at 0.3: {0,1,2},{3}
	cl = d.CutWithBudget(0.3, 4)
	if len(cl) != 2 || !eqIntSlice(cl[0], []int{0, 1, 2}) {
		t.Fatalf("CutWithBudget(0.3) = %v", cl)
	}
	// cut above all: single cluster
	cl = d.CutWithBudget(1.0, 4)
	if len(cl) != 1 || len(cl[0]) != 4 {
		t.Fatalf("CutWithBudget(1.0) = %v", cl)
	}
}

func TestSLINKSingleItem(t *testing.T) {
	d := SLINK(1, func(i, j int) float64 { return 0 })
	if len(d.Merges()) != 0 {
		t.Fatal("single item should have no merges")
	}
	cl := d.CutWithBudget(1, 1)
	if len(cl) != 1 || !eqIntSlice(cl[0], []int{0}) {
		t.Fatalf("CutWithBudget = %v", cl)
	}
}

func TestSLINKZeroItems(t *testing.T) {
	d := SLINK(0, nil)
	if len(d.Merges()) != 0 || len(d.CutWithBudget(1, 0)) != 0 {
		t.Fatal("empty dendrogram should be empty")
	}
}

// TestPropertySLINKMatchesNaiveSingleLinkage: the clusters from cutting a
// SLINK dendrogram at any threshold must equal naive single-linkage
// clusters (equivalently, connected components of the ≤-threshold graph).
// This is Section 3.2's reason for choosing SLINK.
func TestPropertySLINKMatchesNaiveSingleLinkage(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(12)
		m := randomDistMatrix(r, n)
		threshold := r.Float64()
		d := SLINK(n, matrixDist(m))
		got := d.CutWithBudget(threshold, n)
		want := connectedComponents(n, m, threshold)
		if !eqClusters(got, want) {
			t.Fatalf("n=%d t=%v:\nslink %v\nwant  %v", n, threshold, got, want)
		}
		// naive agglomerative single linkage must agree too
		naive := AgglomerateNaive(n, matrixDist(m), threshold, n)
		if !eqClusters(naive, want) {
			t.Fatalf("naive single-link disagrees:\n%v\nwant %v", naive, want)
		}
	}
}

// connectedComponents is the reference implementation of single-linkage
// clusters at a threshold.
func connectedComponents(n int, m [][]float64, threshold float64) [][]int {
	uf := newUnionFind(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if m[i][j] <= threshold {
				uf.unionBudget(i, j, n)
			}
		}
	}
	return uf.clusters()
}

func TestCutWithBudgetRespectsMaxSize(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(12)
		m := randomDistMatrix(r, n)
		maxSize := 1 + r.Intn(4)
		d := SLINK(n, matrixDist(m))
		for _, c := range d.CutWithBudget(1.0, maxSize) {
			if len(c) > maxSize {
				t.Fatalf("cluster %v exceeds budget %d", c, maxSize)
			}
		}
	}
}

func TestCutWithBudgetOne(t *testing.T) {
	m := randomDistMatrix(rand.New(rand.NewSource(1)), 5)
	d := SLINK(5, matrixDist(m))
	cl := d.CutWithBudget(1.0, 1)
	if len(cl) != 5 {
		t.Fatalf("budget 1 should keep singletons, got %v", cl)
	}
}

func TestSLINKMergeHeightsMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	m := randomDistMatrix(r, 20)
	d := SLINK(20, matrixDist(m))
	merges := d.Merges()
	if len(merges) != 19 {
		t.Fatalf("got %d merges", len(merges))
	}
	for i := 1; i < len(merges); i++ {
		if merges[i].Height < merges[i-1].Height {
			t.Fatal("merges not sorted by height")
		}
	}
}

func TestAgglomerateNaiveBudget(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	m := randomDistMatrix(r, 8)
	cl := AgglomerateNaive(8, matrixDist(m), 1.0, 3)
	for _, c := range cl {
		if len(c) > 3 {
			t.Fatalf("cluster %v exceeds budget", c)
		}
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(5)
	if !uf.unionBudget(0, 1, 5) {
		t.Fatal("first union should succeed")
	}
	if uf.unionBudget(0, 1, 5) {
		t.Fatal("repeated union should be a no-op")
	}
	if uf.unionBudget(2, 3, 1) {
		t.Fatal("union exceeding budget should fail")
	}
	uf.unionBudget(2, 3, 2)
	cl := uf.clusters()
	if len(cl) != 3 {
		t.Fatalf("clusters = %v", cl)
	}
}

// TestSLINKHeightsMatchNaiveDendrogram cross-checks the full dendrogram
// heights (not just one cut) against an O(n³) reference: for every pair
// of items, the merge height at which they become connected must match.
func TestSLINKHeightsMatchNaiveDendrogram(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		n := 3 + r.Intn(8)
		m := randomDistMatrix(r, n)
		d := SLINK(n, matrixDist(m))

		// reference: thresholds at which pairs connect, via sorted edges
		type edge struct {
			i, j int
			w    float64
		}
		var edges []edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, edge{i, j, m[i][j]})
			}
		}
		sort.Slice(edges, func(a, b int) bool { return edges[a].w < edges[b].w })
		joinHeight := make([][]float64, n)
		for i := range joinHeight {
			joinHeight[i] = make([]float64, n)
			for j := range joinHeight[i] {
				joinHeight[i][j] = math.Inf(1)
			}
		}
		uf := newUnionFind(n)
		for _, e := range edges {
			// connect and record heights for all newly joined pairs
			ra, rb := uf.find(e.i), uf.find(e.j)
			if ra == rb {
				continue
			}
			var a, b []int
			for x := 0; x < n; x++ {
				switch uf.find(x) {
				case ra:
					a = append(a, x)
				case rb:
					b = append(b, x)
				}
			}
			for _, x := range a {
				for _, y := range b {
					joinHeight[x][y], joinHeight[y][x] = e.w, e.w
				}
			}
			uf.unionBudget(e.i, e.j, n)
		}

		// SLINK heights: replay merges into a union-find, recording the
		// same pairwise join heights.
		got := make([][]float64, n)
		for i := range got {
			got[i] = make([]float64, n)
			for j := range got[i] {
				got[i][j] = math.Inf(1)
			}
		}
		uf2 := newUnionFind(n)
		for _, mg := range d.Merges() {
			ra, rb := uf2.find(mg.Item), uf2.find(mg.Parent)
			if ra == rb {
				continue
			}
			var a, b []int
			for x := 0; x < n; x++ {
				switch uf2.find(x) {
				case ra:
					a = append(a, x)
				case rb:
					b = append(b, x)
				}
			}
			for _, x := range a {
				for _, y := range b {
					got[x][y], got[y][x] = mg.Height, mg.Height
				}
			}
			uf2.unionBudget(mg.Item, mg.Parent, n)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && math.Abs(got[i][j]-joinHeight[i][j]) > 1e-12 {
					t.Fatalf("pair (%d,%d): slink height %v, reference %v", i, j, got[i][j], joinHeight[i][j])
				}
			}
		}
	}
}

func eqIntSlice(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func eqClusters(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !eqIntSlice(a[i], b[i]) {
			return false
		}
	}
	return true
}
