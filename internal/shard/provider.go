package shard

import (
	"context"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/par"
	"repro/internal/query"
)

// Provider returns the set's core.StatProvider. A set with no remote
// shard answers with passes over its combined table, whose chunks are
// the shards' own, partitioning on up to parallelism workers (0 means
// GOMAXPROCS). A set with remote shards asks each shard about its slice
// of the selection — only shards holding a selected row, each sent the
// words that hold one — and merges the answers exactly, in shard (=
// combined row) order: values concatenate, summaries fold, counts add
// under the set's one dictionary and bitmaps land in place, so every answer
// matches the unsharded computation.
func (s *Set) Provider(parallelism int) *Provider {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	p := &Provider{s: s}
	if !s.anyRemote() {
		p.local = core.NewTableProvider(s.combined, parallelism)
	}
	return p
}

// anyRemote reports whether any shard is served over the fabric.
func (s *Set) anyRemote() bool {
	for _, ls := range s.shards {
		if ls.isRemote() {
			return true
		}
	}
	return false
}

// Provider implements core.StatProvider over a Set. See Set.Provider.
type Provider struct {
	s *Set
	// local answers for a set with no remote shard; nil otherwise.
	local core.StatProvider
}

var _ core.StatProvider = (*Provider)(nil)

// NumericStats returns attr's non-NULL values in combined row order, in
// a fresh slice, with their summary: the full-selection extraction.
// opts is unused: every numeric cut reads the same values.
func (p *Provider) NumericStats(ctx context.Context, attr string, opts core.CutOptions) ([]float64, engine.NumericSummary, error) {
	var x engine.NumericExtract
	err := p.Extract(ctx, []*engine.NumericExtract{&x}, []string{attr}, bitvec.NewFull(p.s.combined.NumRows()))
	return x.Vals, x.Sum, err
}

// Extract implements core.StatProvider: one cut RPC per shard carries
// every attribute. A remote shard's values are decoded straight into
// the part of each xs[c].Vals they end up in: each shard gets room for
// as many values as it has selected rows, so unless a NULL leaves a gap
// before them, the merge copies none.
func (p *Provider) Extract(ctx context.Context, xs []*engine.NumericExtract, attrs []string, sel *bitvec.Vector) error {
	if p.local != nil {
		return p.local.Extract(ctx, xs, attrs, sel)
	}
	room := make([]int, p.s.NumShards()+1) // shard i's values go from room[i] on
	for i := range p.s.shards {
		_, part := p.s.shardWindow(i, sel)
		room[i+1] = room[i] + countWords(part)
	}
	for _, x := range xs {
		x.Reset(sel)
		x.Vals = slices.Grow(x.Vals, room[len(room)-1])
	}
	answers, err := p.fanOut(ctx, CutRequest{Kind: CutValues}, attrs, sel, func(i int, a *CutAnswer) {
		a.Values = slices.Grow(a.Values[:0], len(xs))[:len(xs)]
		for c, x := range xs {
			a.Values[c].Vals = x.Vals[room[i]:room[i]:room[i+1]]
		}
	})
	defer releaseAnswers(answers)
	if err != nil {
		return err
	}
	for i, a := range answers {
		if a == nil {
			continue
		}
		for c, x := range xs {
			v := &a.Values[c]
			x.AppendRun(p.s.offsets[i]/64+a.W0, v.Present, v.Vals, v.Sum)
		}
	}
	return nil
}

// Categories implements core.StatProvider. Every shard counts in the
// set's one dictionary, so the counts add.
func (p *Provider) Categories(ctx context.Context, attr string, sel *bitvec.Vector) ([]string, []int, error) {
	if p.local != nil {
		return p.local.Categories(ctx, attr, sel)
	}
	answers, err := p.fanOut(ctx, CutRequest{Kind: CutCategories}, []string{attr}, sel, nil)
	defer releaseAnswers(answers)
	if err != nil {
		return nil, nil, err
	}
	ci, err := p.s.colIndex(attr)
	if err != nil {
		return nil, nil, err
	}
	dict, err := p.s.dict(ctx, ci)
	if err != nil {
		return nil, nil, err
	}
	counts := make([]int, len(dict))
	for _, a := range answers {
		if a == nil {
			continue
		}
		if err := AddCounts(counts, a.Counts); err != nil {
			return nil, nil, err
		}
	}
	return dict, counts, nil
}

// Bools implements core.StatProvider.
func (p *Provider) Bools(ctx context.Context, attr string, sel *bitvec.Vector) (int, int, error) {
	if p.local != nil {
		return p.local.Bools(ctx, attr, sel)
	}
	answers, err := p.fanOut(ctx, CutRequest{Kind: CutBools}, []string{attr}, sel, nil)
	defer releaseAnswers(answers)
	if err != nil {
		return 0, 0, err
	}
	f, t := 0, 0
	for _, a := range answers {
		if a != nil {
			f += a.Falses
			t += a.Trues
		}
	}
	return f, t, nil
}

// Partition implements core.StatProvider for string and bool columns,
// the ones a cut partitions without values in hand.
func (p *Provider) Partition(ctx context.Context, attr string, preds []query.Predicate, sel *bitvec.Vector) ([]*bitvec.Vector, error) {
	if p.local != nil {
		return p.local.Partition(ctx, attr, preds, sel)
	}
	answers, err := p.fanOut(ctx, CutRequest{Kind: CutPartition, Preds: preds}, []string{attr}, sel, nil)
	defer releaseAnswers(answers)
	if err != nil {
		return nil, err
	}
	out := make([]*bitvec.Vector, len(preds))
	for r := range out {
		out[r] = bitvec.NewLike(sel)
	}
	for i, a := range answers {
		if a == nil {
			continue
		}
		w0 := p.s.offsets[i]/64 + a.W0
		for r, words := range a.Bits {
			ow0, ow := out[r].Window()
			copy(ow[w0-ow0:], words)
		}
	}
	return out, nil
}

// fanOut asks every shard holding a row of sel for req's statistic of
// attrs under its slice of sel, all at once — remote shards over the
// fabric, where the caller only waits; local ones with ComputeCut over
// their views.
// place, when non-nil, readies a remote shard's answer before its RPC.
// answers[i] is shard i's, nil when no row of it is selected; the caller
// releases them, also on error.
func (p *Provider) fanOut(ctx context.Context, req CutRequest, attrs []string, sel *bitvec.Vector, place func(i int, a *CutAnswer)) ([]*CutAnswer, error) {
	req.Cols = make([]int, len(attrs))
	for c, attr := range attrs {
		ci, err := p.s.colIndex(attr)
		if err != nil {
			return nil, err
		}
		req.Cols[c] = ci
	}
	answers := make([]*CutAnswer, p.s.NumShards())
	err := par.For(len(answers), len(answers), func(i int) error {
		r, ok := p.s.shardSlice(i, sel)
		if !ok {
			return nil
		}
		r.Kind, r.Cols, r.Preds = req.Kind, req.Cols, req.Preds
		a := answerPool.Get().(*CutAnswer)
		answers[i] = a
		sb, err := p.s.remoteBackend(ctx, i)
		if err != nil {
			return err
		}
		if sb == nil {
			return ComputeCut(ctx, p.s.views[i], r, a)
		}
		if place != nil {
			place(i, a)
		}
		return sb.Cut(ctx, r, a)
	})
	return answers, err
}

var answerPool = sync.Pool{New: func() any { return new(CutAnswer) }}

// releaseAnswers recycles answers, less any values placed in a buffer
// the caller owns.
func releaseAnswers(answers []*CutAnswer) {
	for _, a := range answers {
		if a != nil {
			for c := range a.Values {
				a.Values[c].Vals = nil
			}
			answerPool.Put(a)
		}
	}
}

// shardWindow returns the words of sel's window over shard i's rows:
// part, from combined word w0 on, is empty when the window misses the
// shard. Shards start on chunk boundaries, which are word boundaries.
func (s *Set) shardWindow(i int, sel *bitvec.Vector) (w0 int, part []uint64) {
	sw0, words := sel.Window()
	lo := s.offsets[i] / 64
	a, b := max(lo, sw0), min(lo+(s.manifest.Shards[i].Rows+63)/64, sw0+len(words))
	if a >= b {
		return a, nil
	}
	return a, words[a-sw0 : b-sw0]
}

// shardSlice is shard i's slice of the combined selection: the words of
// its window over the shard, in shard-local word numbers, or no words
// when it selects every row of the shard. ok is false when it selects
// none.
func (s *Set) shardSlice(i int, sel *bitvec.Vector) (req CutRequest, ok bool) {
	w0, part := s.shardWindow(i, sel)
	switch countWords(part) {
	case 0:
		return req, false
	case s.manifest.Shards[i].Rows:
		return req, true
	}
	return CutRequest{W0: w0 - s.offsets[i]/64, Sel: part}, true
}

// countWords returns the number of bits set in words.
func countWords(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}
