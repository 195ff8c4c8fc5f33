package shard

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/par"
	"repro/internal/query"
	"repro/internal/storage"
)

// Provider returns the set's core.StatProvider. Each shard holding a
// selected row answers for its slice of the selection — only the words
// that hold one; every shard starts on a chunk, so on a selection word —
// a local shard with ComputeCut over its view, a remote one over the
// fabric, all at once. The answers merge exactly, in shard (= combined
// row) order: values concatenate, summaries fold, counts add under the
// set's one dictionary and bitmaps land in place, so every answer
// matches the unsharded computation.
//
// parallelism is unused: the shards of a fan-out already answer
// concurrently, and a shard's pass runs on one worker.
func (s *Set) Provider(parallelism int) *Provider { return &Provider{s: s} }

// Provider implements core.StatProvider over a Set. See Set.Provider.
type Provider struct{ s *Set }

var _ core.StatProvider = (*Provider)(nil)

// NumericStats returns attr's non-NULL values in combined row order, in
// a fresh slice, with their summary: the full-selection extraction.
// opts is unused: every numeric cut reads the same values.
func (p *Provider) NumericStats(ctx context.Context, attr string, opts core.CutOptions) ([]float64, engine.NumericSummary, error) {
	var x engine.NumericExtract
	err := p.Extract(ctx, []*engine.NumericExtract{&x}, []string{attr}, bitvec.NewFull(p.s.combined.NumRows()))
	return x.Vals, x.Sum, err
}

// Extract implements core.StatProvider: one cut per shard carries
// every attribute. Each shard gets room in each xs[c].Vals for as many
// values as it has selected rows and extracts its values straight into
// it, so unless a NULL leaves a gap before them, the merge copies none.
func (p *Provider) Extract(ctx context.Context, xs []*engine.NumericExtract, attrs []string, sel *bitvec.Vector) error {
	parts := p.parts(sel)
	total := 0
	if len(parts) > 0 {
		last := parts[len(parts)-1]
		total = last.before + last.rows
	}
	for _, x := range xs {
		x.Reset(sel)
		x.Vals = slices.Grow(x.Vals, total)
	}
	answers, err := p.fanOut(ctx, CutRequest{Kind: CutValues}, attrs, parts, func(pt *part, a *CutAnswer) {
		a.Values = slices.Grow(a.Values[:0], len(xs))[:len(xs)]
		for c, x := range xs {
			a.Values[c].Vals = x.Vals[pt.before : pt.before : pt.before+pt.rows]
		}
	})
	defer releaseAnswers(answers)
	if err != nil {
		return err
	}
	for _, a := range answers {
		for c, x := range xs {
			v := &a.Values[c]
			x.AppendRun(a.W0, v.Present, v.Vals, v.Sum)
		}
	}
	return nil
}

// Categories implements core.StatProvider. Every shard counts in the
// set's one dictionary, so the counts add.
func (p *Provider) Categories(ctx context.Context, attr string, sel *bitvec.Vector) ([]string, []int, error) {
	answers, err := p.fanOut(ctx, CutRequest{Kind: CutCategories}, []string{attr}, p.parts(sel), nil)
	defer releaseAnswers(answers)
	if err != nil {
		return nil, nil, err
	}
	col, err := p.s.combined.ColumnByName(attr)
	if err != nil {
		return nil, nil, err
	}
	dict, err := storage.Dictionary(col)
	if err != nil {
		return nil, nil, err
	}
	counts := make([]int, len(dict))
	for _, a := range answers {
		if err := AddCounts(counts, a.Counts); err != nil {
			return nil, nil, err
		}
	}
	return dict, counts, nil
}

// Bools implements core.StatProvider.
func (p *Provider) Bools(ctx context.Context, attr string, sel *bitvec.Vector) (int, int, error) {
	answers, err := p.fanOut(ctx, CutRequest{Kind: CutBools}, []string{attr}, p.parts(sel), nil)
	defer releaseAnswers(answers)
	if err != nil {
		return 0, 0, err
	}
	f, t := 0, 0
	for _, a := range answers {
		f += a.Falses
		t += a.Trues
	}
	return f, t, nil
}

// Partition implements core.StatProvider for string and bool columns,
// the ones a cut partitions without values in hand. Each shard writes
// its words of the region bitmaps where they belong.
func (p *Provider) Partition(ctx context.Context, attr string, preds []query.Predicate, sel *bitvec.Vector) ([]*bitvec.Vector, error) {
	out := make([]*bitvec.Vector, len(preds))
	for r := range out {
		out[r] = bitvec.NewLike(sel)
	}
	ow0, _ := sel.Window()
	answers, err := p.fanOut(ctx, CutRequest{Kind: CutPartition, Preds: preds}, []string{attr}, p.parts(sel), func(pt *part, a *CutAnswer) {
		lo, hi := pt.w0-ow0, pt.w0-ow0+len(pt.words)
		a.Bits = slices.Grow(a.Bits[:0], len(out))[:len(out)]
		for r, v := range out {
			_, words := v.Window()
			a.Bits[r] = words[lo:hi:hi]
		}
	})
	defer releaseAnswers(answers)
	if err != nil {
		return nil, err
	}
	// An answer read where it was placed copies onto itself.
	for _, a := range answers {
		for r, words := range a.Bits {
			_, ow := out[r].Window()
			copy(ow[a.W0-ow0:], words)
		}
	}
	return out, nil
}

// part is shard i's part of a selection: its words, from combined word
// w0 on, and its selected rows, after before selected rows of the shards
// before it.
type part struct {
	i, w0        int
	words        []uint64
	before, rows int
}

// parts returns the parts of sel over the shards holding a selected
// row, in shard order.
func (p *Provider) parts(sel *bitvec.Vector) []part {
	sw0, words := sel.Window()
	out := make([]part, 0, len(p.s.views))
	before := 0
	for i, t := range p.s.views {
		lo := p.s.offsets[i] / 64
		a, b := max(lo, sw0), min(lo+(t.NumRows()+63)/64, sw0+len(words))
		if a >= b {
			continue
		}
		pt := part{i: i, w0: a, words: words[a-sw0 : b-sw0], before: before}
		if pt.rows = countWords(pt.words); pt.rows > 0 {
			out = append(out, pt)
			before += pt.rows
		}
	}
	return out
}

// fanOut asks the shard of each part for req's statistic of attrs under
// its slice of the selection, all at once: a remote shard over the
// fabric, where the caller only waits, a local one with ComputeCut.
// place, when non-nil, readies a shard's answer before it is computed.
// answers[j] is parts[j]'s, its W0 a combined word; the caller releases
// them, also on error.
func (p *Provider) fanOut(ctx context.Context, req CutRequest, attrs []string, parts []part, place func(pt *part, a *CutAnswer)) ([]*CutAnswer, error) {
	req.Cols = make([]int, len(attrs))
	for c, attr := range attrs {
		if req.Cols[c] = p.s.combined.Schema().Index(attr); req.Cols[c] < 0 {
			return nil, fmt.Errorf("shard: no column %q", attr)
		}
	}
	answers := make([]*CutAnswer, len(parts))
	err := par.For(len(parts), len(parts), func(j int) error {
		pt := &parts[j]
		a := answerPool.Get().(*CutAnswer)
		answers[j] = a
		if place != nil {
			place(pt, a)
		}
		lo, r := p.s.offsets[pt.i]/64, req
		if pt.rows < p.s.views[pt.i].NumRows() {
			r.W0, r.Sel = pt.w0-lo, pt.words
		}
		if err := p.s.cut(ctx, pt.i, r, a); err != nil {
			return err
		}
		a.W0 += lo
		return nil
	})
	return answers, err
}

var answerPool = sync.Pool{New: func() any { return new(CutAnswer) }}

// releaseAnswers recycles answers, less any values or bitmaps placed in
// buffers the caller owns.
func releaseAnswers(answers []*CutAnswer) {
	for _, a := range answers {
		if a == nil {
			continue
		}
		for c := range a.Values {
			a.Values[c].Vals = nil
		}
		clear(a.Bits)
		answerPool.Put(a)
	}
}

// countWords returns the number of bits set in words.
func countWords(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}
