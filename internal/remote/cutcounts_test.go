package remote

import (
	"context"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/datagen"
	"repro/internal/obsv"
	"repro/internal/query"
	"repro/internal/shard"
)

// phaseWork is what one pipeline phase of a traced, ledgered
// exploration did: the chunk fetches its span bills from the ledger,
// and the RPCs under it by operation.
type phaseWork struct {
	fetches int64
	rpcs    map[string]int
}

// phaseWorkOf reads every phase span under the root of tr.
func phaseWorkOf(tr *obsv.Trace) map[string]phaseWork {
	out := map[string]phaseWork{}
	for _, ph := range tr.Tree().Children {
		w := phaseWork{rpcs: map[string]int{}}
		for _, key := range []string{"chunksDecoded", "chunkCacheHits"} {
			if v, ok := ph.Attrs[key].(int64); ok {
				w.fetches += v
			}
		}
		walkSpans(ph, func(s *obsv.SpanJSON) {
			if strings.HasPrefix(s.Name, "rpc ") {
				w.rpcs[strings.TrimPrefix(s.Name, "rpc ")]++
			}
		})
		out[ph.Name] = w
	}
	return out
}

// exploreTraced runs one exploration under a fresh trace and ledger.
func exploreTraced(t *testing.T, cart *core.Cartographer, q query.Query) (*core.Result, map[string]phaseWork) {
	t.Helper()
	return runTraced(t, cart, cql.Statement{Query: q})
}

// runTraced runs one statement, as every runner of one does, under a
// fresh trace and ledger.
func runTraced(t *testing.T, cart *core.Cartographer, st cql.Statement) (*core.Result, map[string]phaseWork) {
	t.Helper()
	tr, sp := obsv.NewTrace("explore")
	res, err := cql.Explore(obsv.WithLedger(obsv.WithSpan(context.Background(), sp), new(obsv.Ledger)), cart, st)
	sp.End()
	if err != nil {
		t.Fatal(err)
	}
	return res, phaseWorkOf(tr)
}

// TestFabricCutsFetchNoChunks: on a 4-shard fabric, a sub-selection
// exploration's cut and merge phases fetch no chunk — every candidate's
// CUT read is a cut RPC answered where the shard lives, and composition
// cuts its regions from the candidates in hand with no RPC at all — and
// the answer is the unsharded table's.
func TestFabricCutsFetchNoChunks(t *testing.T) {
	tbl := datagen.SkySurvey(12_000, 47)
	local := writeShardedInputs(t, tbl, 4, 256)
	f := startFabric(t, local, nil)
	set, err := shard.OpenWith(f.manifest, shard.Options{Store: lazyThrash, Remote: testOpener()})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	opts := core.DefaultOptions()
	opts.Parallelism = 2
	cart, err := core.NewCartographerWith(set.Table(), opts, set.Provider(opts.Parallelism))
	if err != nil {
		t.Fatal(err)
	}
	q := query.New("sky", query.NewRange("dec", -40, 50))
	res, work := exploreTraced(t, cart, q)
	if got, want := renderResult(res), unshardedRef(t, tbl, q); got != want {
		t.Errorf("fabric result differs from unsharded:\nwant:\n%s\ngot:\n%s", want, got)
	}
	merged := false
	for _, m := range res.Maps {
		merged = merged || len(m.Attrs) > 1
	}
	if !merged {
		t.Fatal("no map composes two attributes: the merge phase went untested")
	}
	for _, phase := range []string{"cut", "merge"} {
		if w := work[phase]; w.fetches != 0 || w.rpcs["chunk"] != 0 {
			t.Errorf("%s phase fetched %d chunks in %d chunk RPCs, want none", phase, w.fetches, w.rpcs["chunk"])
		}
	}
	if w := work["cut"]; len(w.rpcs) != 1 || w.rpcs["cut"] == 0 {
		t.Errorf("cut phase made RPCs %v, want cut RPCs alone", w.rpcs)
	}
	if w := work["merge"]; len(w.rpcs) != 0 {
		t.Errorf("merge phase made RPCs %v, want none: composition cuts from the candidates in hand", w.rpcs)
	}
}

// TestRepeatFullExploreRunsNoPartition: a second exploration of the full
// selection takes every candidate — predicates and region bitmaps — from
// the memo, so its cut phase reads no column: no chunk fetch on a lazy
// local store, no RPC on the fabric. A WITH clause runs on a view that
// shares the memo, keyed by cut options: a second WITH CUT variance
// exploration, and a WITH MAPS 4 one after the plain ones, read nothing
// in their cut phase either.
func TestRepeatFullExploreRunsNoPartition(t *testing.T) {
	tbl := datagen.SkySurvey(6_000, 53)
	local := writeShardedInputs(t, tbl, 4, 256)
	f := startFabric(t, local, nil)
	for _, tc := range []struct {
		name     string
		manifest string
		opts     shard.Options
	}{
		{"local", local, shard.Options{Store: colstore.Options{Mode: colstore.ModeLazy, CacheBytes: 1 << 20}}},
		{"remote", f.manifest, shard.Options{Store: lazyThrash, Remote: testOpener()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set, err := shard.OpenWith(tc.manifest, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer set.Close()
			opts := core.DefaultOptions()
			opts.Parallelism = 2
			cart, err := core.NewCartographerWith(set.Table(), opts, set.Provider(opts.Parallelism))
			if err != nil {
				t.Fatal(err)
			}
			q := query.New("sky")
			first, cold := exploreTraced(t, cart, q)
			if cold["cut"].fetches+int64(len(cold["cut"].rpcs)) == 0 {
				t.Fatalf("the first exploration's cut phase read nothing: %+v", cold["cut"])
			}
			second, warm := exploreTraced(t, cart, q)
			if w := warm["cut"]; w.fetches != 0 || len(w.rpcs) != 0 {
				t.Errorf("repeat cut phase fetched %d chunks and made RPCs %v, want none", w.fetches, w.rpcs)
			}
			if renderResult(second) != renderResult(first) {
				t.Errorf("repeat answer differs:\n%s\nvs\n%s", renderResult(second), renderResult(first))
			}
			for i, text := range []string{"EXPLORE sky WITH CUT variance", "EXPLORE sky WITH CUT variance", "EXPLORE sky WITH MAPS 4"} {
				st, err := cql.Parse(text, set.Table())
				if err != nil {
					t.Fatal(err)
				}
				_, work := runTraced(t, cart, st)
				read := work["cut"].fetches + int64(len(work["cut"].rpcs))
				if i == 0 && read == 0 {
					t.Errorf("%s, first: the cut phase read nothing under new cut options", text)
				}
				if i > 0 && read != 0 {
					t.Errorf("%s, after the same cut options: cut phase fetched %d chunks and made RPCs %v, want none", text, work["cut"].fetches, work["cut"].rpcs)
				}
			}
		})
	}
}

// TestCompositionFanOutIdentical: composition cuts the regions of a
// numeric attribute from the values in hand over the exploration's
// workers, and collects the cuts by region, so at Splits 3, MaxRegions 8
// and MaxPredicates 3 every answer is byte-identical at Parallelism 1
// and 4 — in memory and on a lazy 4-shard store, whose merge phase
// still fetches no chunk.
func TestCompositionFanOutIdentical(t *testing.T) {
	tbl := datagen.SkySurvey(12_000, 61)
	local := writeShardedInputs(t, tbl, 4, 256)
	set, err := shard.OpenWith(local, shard.Options{Store: lazyThrash})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	queries := []query.Query{
		query.New("sky", query.NewRange("dec", -40, 50)),
		query.New("sky", query.NewRange("ra", 30, 200)),
		query.New("sky", query.NewRange("mag_r", 14, 19), query.NewRange("dec", -60, 60)),
	}
	composed := false
	answers := func(par int, lazy bool) []string {
		opts := core.DefaultOptions()
		opts.Parallelism, opts.Cut.Splits, opts.MaxRegions, opts.MaxPredicates = par, 3, 8, 3
		var (
			cart *core.Cartographer
			err  error
		)
		if lazy {
			cart, err = core.NewCartographerWith(set.Table(), opts, set.Provider(par))
		} else {
			cart, err = core.NewCartographer(tbl, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, q := range queries {
			res, work := exploreTraced(t, cart, q)
			if lazy && work["merge"].fetches != 0 {
				t.Errorf("%s at parallelism %d: the merge phase fetched %d chunks, want none", q, par, work["merge"].fetches)
			}
			for _, m := range res.Maps {
				composed = composed || len(m.Attrs) > 1
			}
			out = append(out, renderResult(res))
		}
		return out
	}
	want := answers(1, false)
	if !composed {
		t.Fatal("no map composes two attributes: composition went untested")
	}
	for _, tc := range []struct {
		par  int
		lazy bool
	}{{4, false}, {1, true}, {4, true}} {
		for i, got := range answers(tc.par, tc.lazy) {
			if got != want[i] {
				t.Errorf("parallelism %d, lazy %v: answer %d differs from the serial in-memory one:\nwant:\n%s\ngot:\n%s", tc.par, tc.lazy, i, want[i], got)
			}
		}
	}
}
