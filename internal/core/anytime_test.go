package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/sample"
)

func TestAnytimeOptionsValidate(t *testing.T) {
	if err := DefaultAnytimeOptions().validate(); err != nil {
		t.Fatal(err)
	}
	if err := (AnytimeOptions{InitialSample: 10, GrowthFactor: 2, StableRounds: -1}).validate(); err == nil {
		t.Error("StableRounds -1 should fail")
	}
}

// TestAnytimeSamplerOptionsCheckedOnce: InitialSample and GrowthFactor
// are the sampler's inputs, so a bad one fails with sample's own error,
// checked there and only there.
func TestAnytimeSamplerOptionsCheckedOnce(t *testing.T) {
	c, err := NewCartographer(datagen.Census(500, 3), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []AnytimeOptions{
		{InitialSample: 0, GrowthFactor: 2},
		{InitialSample: 10, GrowthFactor: 1},
	} {
		_, want := sample.NewProgressive(500, o.InitialSample, o.GrowthFactor, o.Seed)
		if want == nil {
			t.Fatalf("%+v: the sampler accepts it", o)
		}
		if _, err := c.ExploreAnytime(context.Background(), query.New("census"), o); err == nil || err.Error() != want.Error() {
			t.Errorf("%+v: ExploreAnytime error %v, want the sampler's %q", o, err, want)
		}
	}
}

func TestGroupingJaccard(t *testing.T) {
	cases := []struct {
		a, b [][]string
		want float64
	}{
		{nil, nil, 1},
		{[][]string{{"a", "b"}}, [][]string{{"b", "a"}}, 1},
		{[][]string{{"a"}}, [][]string{{"b"}}, 0},
		{[][]string{{"a"}, {"b"}}, [][]string{{"a"}, {"c"}}, 1.0 / 3.0},
		{[][]string{{"a", "b"}, {"c"}}, [][]string{{"a", "b"}}, 0.5},
	}
	for i, c := range cases {
		if got := GroupingJaccard(c.a, c.b); got != c.want {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestExploreAnytimeStabilizes(t *testing.T) {
	tbl := datagen.Census(30000, 21)
	c, err := NewCartographer(tbl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.ExploreAnytime(context.Background(), query.New("census"), DefaultAnytimeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) < 2 {
		t.Fatalf("rounds = %d, want progressive refinement", len(res.Rounds))
	}
	if res.Final == nil || len(res.Final.Maps) == 0 {
		t.Fatal("no final maps")
	}
	// the planted structure is strong: the run should stabilize before
	// reading all 30000 rows
	if !res.Stabilized {
		t.Error("expected stabilization on strongly structured data")
	}
	last := res.Rounds[len(res.Rounds)-1]
	if last.SampleSize >= 30000 {
		t.Error("stabilization should save reading the full table")
	}
	// sample sizes increase
	for i := 1; i < len(res.Rounds); i++ {
		if res.Rounds[i].SampleSize <= res.Rounds[i-1].SampleSize {
			t.Fatal("sample sizes must grow")
		}
	}
}

func TestExploreAnytimeFindsSameGroupsAsFull(t *testing.T) {
	tbl := datagen.Census(20000, 22)
	c, _ := NewCartographer(tbl, DefaultOptions())
	full, err := c.Explore(query.New("census"))
	if err != nil {
		t.Fatal(err)
	}
	any, err := c.ExploreAnytime(context.Background(), query.New("census"), DefaultAnytimeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sim := GroupingJaccard(full.AttrClusters, any.Final.AttrClusters); sim < 0.99 {
		t.Errorf("anytime grouping differs from full-data grouping: %v vs %v",
			any.Final.AttrClusters, full.AttrClusters)
	}
}

func TestExploreAnytimeRespectsContext(t *testing.T) {
	tbl := datagen.Census(50000, 23)
	c, _ := NewCartographer(tbl, DefaultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the run: it must still return round zero? No —
	// a cancelled context before any round yields an error.
	if _, err := c.ExploreAnytime(ctx, query.New("census"), DefaultAnytimeOptions()); err == nil {
		t.Fatal("fully cancelled run should error (no rounds completed)")
	}

	// a short but non-zero budget completes at least one round and
	// reports interruption (or legitimately finishes early).
	ctx2, cancel2 := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel2()
	opts := DefaultAnytimeOptions()
	opts.StableRounds = 0 // force running until data or time is exhausted
	res, err := c.ExploreAnytime(ctx2, query.New("census"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final == nil {
		t.Fatal("anytime must always return the best result so far")
	}
}

func TestExploreAnytimeTinyTable(t *testing.T) {
	tbl := datagen.Census(50, 24)
	c, _ := NewCartographer(tbl, DefaultOptions())
	res, err := c.ExploreAnytime(context.Background(), query.New("census"), DefaultAnytimeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 1 || res.Rounds[0].SampleSize != 50 {
		t.Fatalf("rounds = %+v, want single full-data round", res.Rounds)
	}
}

// sameCovers asserts two results' maps carry bit-identical covers.
func sameCovers(t *testing.T, label string, a, b *Result) {
	t.Helper()
	for i, m := range a.Maps {
		for ri, reg := range m.Regions {
			if got := b.Maps[i].Regions[ri].Cover; got != reg.Cover {
				t.Fatalf("%s: map %d region %d cover %v, want %v", label, i, ri, got, reg.Cover)
			}
		}
	}
}

// TestExploreAnytimeRoundsMatchGatheredSamples: every round explores its
// sample as a selection, and answers as a fresh Cartographer over a
// table of that sample's rows alone (the copying path rounds used to
// take): the same counts, covers, ranking and grouping.
func TestExploreAnytimeRoundsMatchGatheredSamples(t *testing.T) {
	tbl := datagen.Census(3000, 25)
	opts := AnytimeOptions{InitialSample: 200, GrowthFactor: 3, Seed: 7}
	for _, par := range []int{1, 2} {
		copts := DefaultOptions()
		copts.Parallelism = par
		c, err := NewCartographer(tbl, copts)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []query.Query{
			query.New("census"),
			query.New("census", query.NewRange("age", 25, 60)),
			query.New("census"), // after a filtered run: the memo is warm
		} {
			res, err := c.ExploreAnytime(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := sample.NewProgressive(tbl.NumRows(), opts.InitialSample, opts.GrowthFactor, opts.Seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rounds) != 4 { // 200, 600, 1800, 3000
				t.Fatalf("%d rounds, want 4", len(res.Rounds))
			}
			for r, round := range res.Rounds {
				s, _ := prog.Next()
				gathered, err := NewCartographer(tbl.Gather(tbl.Name(), s.Indexes()), copts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := gathered.Explore(q)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s, parallelism %d, round %d", q, par, r)
				if round.SampleSize != want.TotalRows || round.Result.TotalRows != want.TotalRows {
					t.Fatalf("%s: sample size %d, total rows %d, want %d", label, round.SampleSize, round.Result.TotalRows, want.TotalRows)
				}
				sameResult(t, want, round.Result)
				sameCovers(t, label, want, round.Result)
			}
		}
	}
}

// pollCtx reports cancelled from its n-th poll on — a call of Done or
// Err, the two ways the pipeline asks — and records when that was. n = 0
// never cancels and only counts.
type pollCtx struct {
	context.Context
	cancel context.CancelFunc
	n      int64
	polls  atomic.Int64
	at     atomic.Pointer[time.Time]
}

func newPollCtx(n int64) *pollCtx {
	ctx, cancel := context.WithCancel(context.Background())
	return &pollCtx{Context: ctx, cancel: cancel, n: n}
}

func (c *pollCtx) poll() {
	if c.polls.Add(1) == c.n {
		now := time.Now()
		c.at.Store(&now)
		c.cancel()
	}
}

func (c *pollCtx) Done() <-chan struct{} { c.poll(); return c.Context.Done() }
func (c *pollCtx) Err() error            { c.poll(); return c.Context.Err() }

// TestExploreAnytimeCancelInsideRound cancels halfway through the polls
// of the last round, a full pass over 200k rows: the round stops, and
// the call returns the previous round's result as interrupted, at once.
func TestExploreAnytimeCancelInsideRound(t *testing.T) {
	tbl := datagen.Census(200_000, 26)
	copts := DefaultOptions()
	copts.Parallelism = 1
	q := query.New("census")
	opts := AnytimeOptions{InitialSample: 50_000, GrowthFactor: 2, Seed: 1} // 50k, 100k, 200k
	newCart := func() *Cartographer {
		c, err := NewCartographer(tbl, copts)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Count the polls of a whole run, and of the last round alone: a
	// full-table exploration on a cold memo, as the run's last round is.
	count := newPollCtx(0)
	if _, err := newCart().ExploreAnytime(count, q, opts); err != nil {
		t.Fatal(err)
	}
	last := newPollCtx(0)
	if _, err := newCart().ExploreCtx(last, q); err != nil {
		t.Fatal(err)
	}
	run, round := count.polls.Load(), last.polls.Load()
	if round < 4 || run < round {
		t.Fatalf("a run polls its context %d times and its last round alone %d: rounds must consult the run's context", run, round)
	}

	ctx := newPollCtx(run - round/2)
	res, err := newCart().ExploreAnytime(ctx, q, opts)
	returned := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	at := ctx.at.Load()
	if at == nil {
		t.Fatal("the run never reached the cancelling poll")
	}
	if !res.Interrupted || len(res.Rounds) != 2 || res.Final != res.Rounds[1].Result || res.Rounds[1].SampleSize != 100_000 {
		t.Fatalf("interrupted %v after %d rounds: want the 100k round's result, interrupted", res.Interrupted, len(res.Rounds))
	}
	if d := returned.Sub(*at); d > 50*time.Millisecond {
		t.Fatalf("returned %v after the cancel, want at most 50ms", d)
	}
}
