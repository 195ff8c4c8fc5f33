// Package sample provides the row-sampling machinery behind Section 5.1:
// uniform samples without replacement, and nested progressive samples for the anytime algorithm (each round's sample
// extends the previous one, so successive results converge rather than
// jitter).
package sample

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/storage"
)

// Rows returns k distinct row indexes sampled uniformly from [0, n),
// in ascending order, deterministic in seed. k is clamped to n.
func Rows(n, k int, seed int64) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	r := rand.New(rand.NewSource(seed))
	perm := r.Perm(n)[:k]
	sort.Ints(perm)
	return perm
}

// Table materializes a uniform sample of k rows as a new table with the
// same name and schema.
func Table(t *storage.Table, k int, seed int64) *storage.Table {
	return t.Gather(t.Name(), Rows(t.NumRows(), k, seed))
}

// Progressive produces a nested sequence of samples whose sizes grow
// geometrically until the whole table is covered. All samples are
// prefixes of one seeded permutation: round r's sample contains round
// r-1's rows.
type Progressive struct {
	perm   []int
	size   int
	factor int
	done   bool
}

// NewProgressive creates a progressive sampler over n rows starting at
// `start` rows and multiplying by `factor` each round.
func NewProgressive(n, start, factor int, seed int64) (*Progressive, error) {
	if n < 0 {
		return nil, fmt.Errorf("sample: negative population %d", n)
	}
	if start < 1 {
		return nil, fmt.Errorf("sample: start must be >= 1, got %d", start)
	}
	if factor < 2 {
		return nil, fmt.Errorf("sample: factor must be >= 2, got %d", factor)
	}
	r := rand.New(rand.NewSource(seed))
	return &Progressive{perm: r.Perm(n), size: start, factor: factor}, nil
}

// Next returns the next sample (ascending row indexes) and true, or nil
// and false after the full population has been returned once.
func (p *Progressive) Next() ([]int, bool) {
	if p.done {
		return nil, false
	}
	size := p.size
	if size >= len(p.perm) {
		size = len(p.perm)
		p.done = true
	}
	p.size *= p.factor
	out := append([]int(nil), p.perm[:size]...)
	sort.Ints(out)
	return out, true
}

// Remaining reports whether another round is available.
func (p *Progressive) Remaining() bool { return !p.done }
