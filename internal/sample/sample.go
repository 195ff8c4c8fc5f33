// Package sample provides the row samples behind Section 5.1 as
// selections over global row ids: the uniform sample WITH SAMPLE
// explores, and the nested progressive samples of the anytime algorithm
// (each round's sample extends the previous one, so successive results
// converge rather than jitter). All of them are prefixes of one seeded
// permutation of the rows.
package sample

import (
	"fmt"
	"math/rand"

	"repro/internal/bitvec"
)

// Fraction returns the selection WITH SAMPLE f explores over n rows: the
// first k = max(1, ⌊f·n⌋) rows of the seed-1 permutation, which is the
// first round of NewProgressive(n, k, 2, 1). k is clamped to n, and n
// must not be negative.
func Fraction(n int, f float64) *bitvec.Vector {
	p, _ := NewProgressive(n, max(1, int(f*float64(n))), 2, 1) // fails only for n < 0
	s, _ := p.Next()
	return s
}

// Progressive produces a nested sequence of samples whose sizes grow
// geometrically until the whole table is covered. All samples are
// prefixes of one seeded permutation: round r's sample contains round
// r-1's rows.
type Progressive struct {
	perm   []int
	sel    *bitvec.Vector
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
	return &Progressive{perm: r.Perm(n), sel: bitvec.New(n), size: start, factor: factor}, nil
}

// Next returns the next sample, a selection over the n rows, and true,
// or nil and false after the full population has been returned once.
// The selection is the sampler's own: the next call extends it in place
// by the rows of the next round.
func (p *Progressive) Next() (*bitvec.Vector, bool) {
	if p.done {
		return nil, false
	}
	prev := p.sel.Count()
	size := p.size
	if size >= len(p.perm) {
		size = len(p.perm)
		p.done = true
	}
	p.size *= p.factor
	for _, row := range p.perm[prev:size] {
		p.sel.Set(row)
	}
	return p.sel, true
}
