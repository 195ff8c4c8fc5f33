package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/query"
	"repro/internal/sample"
)

// AnytimeOptions tunes the progressive exploration of Section 5.1: "it
// would continually take small samples of the data and update a set of
// approximate results … the user would have instant results and the
// system could interrupt the exploration after a timeout."
type AnytimeOptions struct {
	// InitialSample is the first round's sample size.
	InitialSample int
	// GrowthFactor multiplies the sample size each round (≥ 2).
	GrowthFactor int
	// StableRounds stops early once the attribute grouping has been
	// identical for this many consecutive rounds (0 disables).
	StableRounds int
	// Seed drives the sampling permutation.
	Seed int64
}

// DefaultAnytimeOptions returns the defaults: start at 1024 rows, double
// every round, stop after 2 stable rounds.
func DefaultAnytimeOptions() AnytimeOptions {
	return AnytimeOptions{InitialSample: 1024, GrowthFactor: 2, StableRounds: 2, Seed: 1}
}

// validate checks what the rounds use; InitialSample and GrowthFactor
// are the sampler's, which sample.NewProgressive checks.
func (o AnytimeOptions) validate() error {
	if o.StableRounds < 0 {
		return fmt.Errorf("core: StableRounds must be >= 0, got %d", o.StableRounds)
	}
	return nil
}

// Round records one refinement step of the anytime algorithm.
type Round struct {
	// SampleSize is the number of rows examined this round.
	SampleSize int
	// Result is the exploration result on the sample.
	Result *Result
	// GroupingSimilarity is the Jaccard similarity between this round's
	// attribute grouping and the previous round's (1 for the first).
	GroupingSimilarity float64
	// Elapsed is this round's wall-clock cost.
	Elapsed time.Duration
}

// AnytimeResult is the outcome of a progressive exploration.
type AnytimeResult struct {
	// Rounds lists every completed refinement, in order.
	Rounds []Round
	// Final is the last completed round's result — the best available
	// answer when the run stopped.
	Final *Result
	// Stabilized reports whether the run stopped because the grouping
	// converged (as opposed to exhausting the data or the context).
	Stabilized bool
	// Interrupted reports whether the context expired mid-run.
	Interrupted bool
}

// ExploreAnytime explores q on progressively larger nested samples,
// returning after the grouping stabilizes, the sample covers the full
// table, or ctx is done — whichever comes first. It evaluates q's WHERE
// clause once; each round then runs the pipeline on q's rows among the
// round's sample (see ExploreSample), on this Cartographer and under
// ctx, so a deadline interrupts a round, not only the gap between two.
// It always returns the best result so far; ctx expiry is not an error
// (that is the point of an anytime algorithm).
func (c *Cartographer) ExploreAnytime(ctx context.Context, q query.Query, opts AnytimeOptions) (res *AnytimeResult, rerr error) {
	defer recoverChunkPanic(&rerr)
	if err := opts.validate(); err != nil {
		return nil, err
	}
	prog, err := sample.NewProgressive(c.table.NumRows(), opts.InitialSample, opts.GrowthFactor, opts.Seed)
	if err != nil {
		return nil, err
	}
	base, err := c.scanBase(ctx, q, nil)
	if err != nil {
		return nil, err
	}
	base.Trim() // each round's base is a copy of it: its window is theirs
	out := &AnytimeResult{}
	var prevGrouping [][]string
	stable := 0
	for s, ok := prog.Next(); ok; s, ok = prog.Next() {
		start := time.Now()
		size := s.Count()
		res, err := c.exploreBase(ctx, q, base.Clone().And(s), size, start)
		if err != nil && ctx.Err() != nil {
			out.Interrupted = true
			break
		}
		if err != nil {
			return nil, err
		}
		round := Round{
			SampleSize:         size,
			Result:             res,
			GroupingSimilarity: 1,
			Elapsed:            time.Since(start),
		}
		if len(out.Rounds) > 0 {
			round.GroupingSimilarity = GroupingJaccard(prevGrouping, res.AttrClusters)
		}
		out.Rounds = append(out.Rounds, round)
		out.Final = res

		if len(out.Rounds) > 1 && round.GroupingSimilarity == 1 {
			stable++
		} else {
			stable = 0
		}
		prevGrouping = res.AttrClusters
		if opts.StableRounds > 0 && stable >= opts.StableRounds {
			out.Stabilized = true
			break
		}
	}
	if out.Final == nil {
		return nil, fmt.Errorf("core: anytime exploration produced no rounds")
	}
	return out, nil
}

// GroupingJaccard measures the agreement of two attribute groupings as
// the Jaccard similarity of their canonical cluster sets. 1 means the
// groupings are identical; 0 means no cluster in common. Two empty
// groupings count as identical.
func GroupingJaccard(a, b [][]string) float64 {
	as := canonGroups(a)
	bs := canonGroups(b)
	if len(as) == 0 && len(bs) == 0 {
		return 1
	}
	inter := 0
	for g := range as {
		if bs[g] {
			inter++
		}
	}
	union := len(as) + len(bs) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func canonGroups(groups [][]string) map[string]bool {
	out := make(map[string]bool, len(groups))
	for _, g := range groups {
		s := append([]string(nil), g...)
		sort.Strings(s)
		out[strings.Join(s, ",")] = true
	}
	return out
}
