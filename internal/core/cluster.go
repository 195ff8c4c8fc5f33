package core

import (
	"math"
	"sort"
)

// Dendrogram is the pointer representation of a single-linkage hierarchy
// as produced by SLINK (Sibson 1973): item i first merges with the
// cluster containing pi[i] at height lambda[i]; the last item has
// lambda = +Inf.
type Dendrogram struct {
	n      int
	pi     []int
	lambda []float64
}

// SLINK computes the single-linkage dendrogram of n items in O(n²) time
// and O(n) working memory, given a distance oracle. This is the
// "optimally efficient" algorithm the paper cites for its map-clustering
// step.
func SLINK(n int, dist func(i, j int) float64) *Dendrogram {
	if n <= 0 {
		return &Dendrogram{}
	}
	pi := make([]int, n)
	lambda := make([]float64, n)
	m := make([]float64, n)
	pi[0] = 0
	lambda[0] = math.Inf(1)
	for i := 1; i < n; i++ {
		pi[i] = i
		lambda[i] = math.Inf(1)
		for j := 0; j < i; j++ {
			m[j] = dist(j, i)
		}
		for j := 0; j < i; j++ {
			if lambda[j] >= m[j] {
				if lambda[j] < m[pi[j]] {
					m[pi[j]] = lambda[j]
				}
				lambda[j] = m[j]
				pi[j] = i
			} else if m[j] < m[pi[j]] {
				m[pi[j]] = m[j]
			}
		}
		for j := 0; j < i; j++ {
			if lambda[j] >= lambda[pi[j]] {
				pi[j] = i
			}
		}
	}
	return &Dendrogram{n: n, pi: pi, lambda: lambda}
}

// Merge is one agglomeration step: the edge (Item, Parent) joins two
// clusters at the given Height.
type Merge struct {
	Item, Parent int
	Height       float64
}

// Merges returns the n−1 merges in ascending height order (ties broken by
// item index for determinism).
func (d *Dendrogram) Merges() []Merge {
	var out []Merge
	for i := 0; i < d.n; i++ {
		if !math.IsInf(d.lambda[i], 1) {
			out = append(out, Merge{Item: i, Parent: d.pi[i], Height: d.lambda[i]})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Height != out[b].Height {
			return out[a].Height < out[b].Height
		}
		return out[a].Item < out[b].Item
	})
	return out
}

// CutWithBudget returns the clusters obtained by applying every merge
// with height ≤ threshold, in ascending height order, skipping a merge
// when the combined cluster would exceed maxSize items. Each cluster is a
// sorted list of item indexes; clusters are ordered by their smallest
// member. The budget implements the paper's requirement that a
// hierarchical algorithm "allows us to control the size of the
// clusters, and thus the number of areas in the result".
func (d *Dendrogram) CutWithBudget(threshold float64, maxSize int) [][]int {
	if maxSize < 1 {
		maxSize = 1
	}
	uf := newUnionFind(d.n)
	for _, m := range d.Merges() {
		if m.Height > threshold {
			break
		}
		uf.unionBudget(m.Item, m.Parent, maxSize)
	}
	return uf.clusters()
}

type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) unionBudget(a, b, maxSize int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	if u.size[ra]+u.size[rb] > maxSize {
		return false
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	return true
}

func (u *unionFind) clusters() [][]int {
	groups := map[int][]int{}
	for i := range u.parent {
		r := u.find(i)
		groups[r] = append(groups[r], i)
	}
	out := make([][]int, 0, len(groups))
	for _, g := range groups {
		sort.Ints(g)
		out = append(out, g)
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// AgglomerateNaive runs textbook O(n³) single-linkage agglomerative
// clustering, stopping when the next merge exceeds threshold or would
// create a cluster larger than maxSize. It returns clusters in the same
// format as Dendrogram.CutWithBudget, which tests check against it.
func AgglomerateNaive(n int, dist func(i, j int) float64, threshold float64, maxSize int) [][]int {
	if maxSize < 1 {
		maxSize = 1
	}
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	clusterDist := func(a, b []int) float64 {
		best := math.Inf(1)
		for _, i := range a {
			for _, j := range b {
				if d := dist(i, j); d < best {
					best = d
				}
			}
		}
		return best
	}
	for len(clusters) > 1 {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if len(clusters[i])+len(clusters[j]) > maxSize {
					continue
				}
				if d := clusterDist(clusters[i], clusters[j]); d < best {
					bi, bj, best = i, j, d
				}
			}
		}
		if bi < 0 || best > threshold {
			break
		}
		merged := append(append([]int(nil), clusters[bi]...), clusters[bj]...)
		sort.Ints(merged)
		next := make([][]int, 0, len(clusters)-1)
		for k, c := range clusters {
			if k != bi && k != bj {
				next = append(next, c)
			}
		}
		clusters = append(next, merged)
	}
	sort.Slice(clusters, func(a, b int) bool { return clusters[a][0] < clusters[b][0] })
	return clusters
}
