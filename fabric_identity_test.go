package atlas

// A generated identity net over the ways of holding a table that CUT's
// pushdown changes the reader of: in memory, as lazy local range
// shards, and behind loopback fabric servers, each shard set opened
// eagerly and deferred. Seeded tables carry the
// values that broke residency identity before — NULL, NaN, ±Inf, −0 and
// +0, constant and all-NULL columns, row counts one off a chunk
// boundary — and random band and IN queries, with a drill into a region
// of each answer, must format byte-identically everywhere at
// Parallelism 1 and 2 — on the table as generated and sorted by one
// column, under narrow bands of it. So must answers that depend on row
// position: screening that stops early, and the random and
// representative examples of a region. Each query explored WITH SAMPLE must format as
// the same query over a table of the sample's rows alone. Each query is
// also a statement, plain and under one WITH clause in turn, that
// answers alike through the façade, POST /api/explore and a session
// root, all on one Cartographer, and as a Cartographer of its own under
// the clause's options. Deferred and eager opens of one manifest plan
// every query alike, before their shards open and after.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/engine"
	"repro/internal/obsv"
	"repro/internal/remote"
	"repro/internal/sample"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
)

var identitySeed = flag.Int64("identity.seed", 0, "run TestGeneratedFabricIdentity with this seed only")

// identityChunk is the chunk size of the generated stores.
const identityChunk = 64

// identityTable generates a table of the given rows from seed: a
// clustered float column salted with NULL, NaN, ±Inf and signed zeros,
// a float column of signed zeros and small integers, a NULL-salted
// integer, category and bool column, a constant column and an all-NULL
// one.
func identityTable(seed int64, rows int) *storage.Table {
	r := rand.New(rand.NewSource(seed))
	b := storage.NewBuilder("t", storage.MustSchema(
		storage.Field{Name: "f", Type: storage.Float64},
		storage.Field{Name: "z", Type: storage.Float64},
		storage.Field{Name: "i", Type: storage.Int64},
		storage.Field{Name: "c", Type: storage.String},
		storage.Field{Name: "b", Type: storage.Bool},
		storage.Field{Name: "k", Type: storage.Float64},
		storage.Field{Name: "n", Type: storage.Int64},
	))
	cats := []string{"ash", "birch", "cedar", "elm", "fir"}[:2+r.Intn(4)]
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	for row := 0; row < rows; row++ {
		var f, z, i, c, bo any
		switch d := r.Intn(20); {
		case d == 0:
			f = nil
		case d <= 2:
			f = special[r.Intn(len(special))]
		default:
			f = float64(10*r.Intn(3)) + r.NormFloat64()
		}
		z = float64(r.Intn(5) - 2)
		if z == 0.0 && r.Intn(2) == 0 {
			z = math.Copysign(0, -1)
		}
		if r.Intn(9) > 0 {
			i = int64(r.Intn(40))
		}
		if r.Intn(11) > 0 {
			c = cats[r.Intn(len(cats))]
		}
		if r.Intn(7) > 0 {
			bo = r.Intn(3) == 0
		}
		b.MustAppendRow(f, z, i, c, bo, 2.5, nil)
	}
	return b.MustBuild()
}

// identityQueries draws random band and IN queries over tbl, plus the
// full table.
func identityQueries(r *rand.Rand, n int, cats []string) []string {
	qs := []string{"EXPLORE t"}
	for len(qs) < n {
		switch r.Intn(3) {
		case 0:
			lo := -3 + r.Float64()*20
			qs = append(qs, fmt.Sprintf("EXPLORE t WHERE f BETWEEN %g AND %g", lo, lo+2+r.Float64()*15))
		case 1:
			lo := r.Intn(30)
			qs = append(qs, fmt.Sprintf("EXPLORE t WHERE i BETWEEN %d AND %d", lo, lo+5+r.Intn(20)))
		default:
			pick := cats[:1+r.Intn(len(cats))]
			qs = append(qs, fmt.Sprintf("EXPLORE t WHERE c IN ('%s')", strings.Join(pick, "','")))
		}
	}
	return qs
}

// residency is one way of holding the generated table.
type residency struct {
	name  string
	table *storage.Table
	set   *shard.Set // nil: in memory
}

// cartographer builds res's Cartographer at parallelism par, its
// statistics read per shard when res is a shard set.
func (res residency) cartographer(t *testing.T, par int) *core.Cartographer {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Parallelism = par
	return res.cartographerWith(t, opts)
}

// cartographerWith is cartographer under opts.
func (res residency) cartographerWith(t *testing.T, opts core.Options) *core.Cartographer {
	t.Helper()
	var sp core.StatProvider // nil: the table's own passes
	if res.set != nil {
		sp = res.set.Provider(opts.Parallelism)
	}
	cart, err := core.NewCartographerWith(res.table, opts, sp)
	if err != nil {
		t.Fatal(err)
	}
	return cart
}

// identitySamples are the WITH SAMPLE fractions of the net: one row
// (the tables hold fewer than 1000), and about a third of them.
var identitySamples = []string{"0.001", "0.3"}

// identityAnswers explores every query, and a drill into the last
// non-empty region of each answer's first map, on res at parallelism
// par, and formats each answer: exact. Between one query and the next
// it explores the query WITH SAMPLE each of identitySamples, through
// the façade on the same Cartographer: sampled.
func identityAnswers(t *testing.T, res residency, par int, queries []string) (exact, sampled []string) {
	t.Helper()
	cart := res.cartographer(t, par)
	ex := &Explorer{cart}
	for _, text := range queries {
		st, err := cql.Parse(text, res.table)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		r, err := cart.Explore(st.Query)
		if err != nil {
			t.Fatalf("%s on %s: %v", text, res.name, err)
		}
		exact = append(exact, formatIdentity(r))
		if m, ri := lastNonEmpty(r); ri >= 0 {
			d, err := cart.ExploreSel(m.Regions[ri].Query, m.Assignment().RegionBits(ri).Clone())
			if err != nil {
				t.Fatalf("drill %d of %s on %s: %v", ri, text, res.name, err)
			}
			exact = append(exact, formatIdentity(d))
		}
		for _, f := range identitySamples {
			s, err := ex.Explore(text + " WITH SAMPLE " + f)
			if err != nil {
				t.Fatalf("%s WITH SAMPLE %s on %s: %v", text, f, res.name, err)
			}
			sampled = append(sampled, formatIdentity(s))
		}
	}
	return exact, sampled
}

// rowOrderAnswers explores every query on res at parallelism par with
// screening capped at a third of the table's rows, so that the rows it
// reads before it stops are the first ones, and formats each answer
// with three random and three representative examples of the last
// non-empty region of its first map: answers that depend on row
// position, each example carrying its row index.
func rowOrderAnswers(t *testing.T, res residency, par int, queries []string) []string {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Parallelism = par
	opts.ScreenOpts.SampleRows = res.table.NumRows() / 3
	cart := res.cartographerWith(t, opts)
	ex := &Explorer{cart}
	var out []string
	for _, text := range queries {
		st, err := cql.Parse(text, res.table)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		r, err := cart.Explore(st.Query)
		if err != nil {
			t.Fatalf("%s on %s with early screening: %v", text, res.name, err)
		}
		answer := formatIdentity(r)
		if m, ri := lastNonEmpty(r); ri >= 0 {
			q := m.Regions[ri].Query
			random, err := ex.RegionExamples(q, 3, 1)
			if err != nil {
				t.Fatalf("examples of %s on %s: %v", q.String(), res.name, err)
			}
			central, err := ex.RepresentativeExamples(q, 3)
			if err != nil {
				t.Fatalf("representative examples of %s on %s: %v", q.String(), res.name, err)
			}
			answer += fmt.Sprintf("random %v\nrepresentative %v\n", random, central)
		}
		out = append(out, answer)
	}
	return out
}

// gatheredAnswers is the oracle of identityAnswers' sampled answers:
// each query explored on a fresh in-memory Cartographer over a table of
// the sample's rows alone, the copying path WITH SAMPLE used to take.
func gatheredAnswers(t *testing.T, tbl *storage.Table, par int, queries []string) []string {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Parallelism = par
	var out []string
	for _, text := range queries {
		for _, f := range identitySamples {
			frac, err := strconv.ParseFloat(f, 64)
			if err != nil {
				t.Fatal(err)
			}
			g := tbl.Gather(tbl.Name(), sample.Fraction(tbl.NumRows(), frac).Indexes())
			cart, err := core.NewCartographer(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			st, err := cql.Parse(text, g)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			r, err := cart.Explore(st.Query)
			if err != nil {
				t.Fatalf("%s on the gathered sample %s: %v", text, f, err)
			}
			out = append(out, formatIdentity(r))
		}
	}
	return out
}

// statementSurfaces names the answers statementAnswers gives per query.
var statementSurfaces = []string{"façade plain", "façade WITH", "façade plain again", "HTTP plain", "HTTP WITH", "HTTP plain again", "session root"}

// identityOps are the WITH clauses of the net's statement ops: query i
// runs under identityOps[i%len(identityOps)].
var identityOps = []string{"CUT variance", "CUT equiwidth", "SPLITS 3", "MAPS 2", "MERGE product"}

// statementAnswers runs each query as a statement on res at parallelism
// par, interleaved on one Cartographer per surface: plain, under its
// WITH clause, plain again — through the façade and POST /api/explore —
// and plain through a session root. Every answer is its response body
// (bodyOf); a session root's follows the façade's three.
func statementAnswers(t *testing.T, res residency, par int, queries []string) []string {
	t.Helper()
	ex := &Explorer{res.cartographer(t, par)}
	opts := core.DefaultOptions()
	opts.Parallelism = par
	srv := server.New(res.table, opts)
	if res.set != nil {
		srv = server.NewSharded(res.set, opts)
	}
	var out []string
	for i, text := range queries {
		seq := []string{text, text + " WITH " + identityOps[i%len(identityOps)], text}
		for _, stmt := range seq {
			r, err := ex.Explore(stmt)
			if err != nil {
				t.Fatalf("%s on %s: %v", stmt, res.name, err)
			}
			st, err := ex.Parse(stmt)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, bodyOf(r, st.String()))
		}
		for _, stmt := range seq {
			req := httptest.NewRequest(http.MethodPost, "/api/explore", strings.NewReader(`{"cql":`+strconv.Quote(stmt)+`}`))
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			var dto server.ResultDTO
			if err := json.Unmarshal(rec.Body.Bytes(), &dto); rec.Code != http.StatusOK || err != nil {
				t.Fatalf("POST %s on %s: status %d, %v: %s", stmt, res.name, rec.Code, err, rec.Body)
			}
			dto.ElapsedMs, dto.Ledger = 0, nil
			b, err := json.Marshal(dto)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
		st, err := ex.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		node, err := ex.NewSession().Explore(st.Query)
		if err != nil {
			t.Fatalf("session root %s on %s: %v", text, res.name, err)
		}
		out = append(out, bodyOf(node.Result, node.Result.Input.String()))
	}
	return out
}

// statementOracle is statementAnswers' reference: each statement
// explored in memory on a fresh Cartographer of its own under
// cql.ApplyOptions, the per-call path WITH clauses used to take, in the
// order statementAnswers answers.
func statementOracle(t *testing.T, tbl *storage.Table, par int, queries []string) []string {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Parallelism = par
	var out []string
	for i, text := range queries {
		var bodies [2]string // plain, then under its WITH clause
		for k, stmt := range []string{text, text + " WITH " + identityOps[i%len(identityOps)]} {
			st, err := cql.Parse(stmt, tbl)
			if err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
			cart, err := core.NewCartographerWith(tbl, cql.ApplyOptions(opts, st.With), nil)
			if err != nil {
				t.Fatal(err)
			}
			r, err := cart.Explore(st.Query)
			if err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
			bodies[k] = bodyOf(r, st.String())
		}
		plain, over := bodies[0], bodies[1]
		out = append(out, plain, over, plain, plain, over, plain, plain)
	}
	return out
}

// bodyOf is the body POST /api/explore answers r with under input, its
// elapsed time and ledger aside.
func bodyOf(r *core.Result, input string) string {
	dto := server.ResultDTO{Input: input, TotalRows: r.TotalRows, BaseCount: r.BaseCount}
	for _, m := range r.Maps {
		md := server.MapDTO{Attrs: m.Attrs, Entropy: m.Entropy}
		for ri, reg := range m.Regions {
			md.Regions = append(md.Regions, server.RegionDTO{Query: m.RegionText(ri), Count: reg.Count, Cover: reg.Cover})
		}
		dto.Maps = append(dto.Maps, md)
	}
	for _, f := range r.Flagged {
		dto.Flagged = append(dto.Flagged, fmt.Sprintf("%s (%s)", f.Attr, f.Reason))
	}
	b, err := json.Marshal(dto)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func formatIdentity(r *core.Result) string {
	r.Elapsed = 0
	return FormatResult(r)
}

// lastNonEmpty returns the first map of r and its last non-empty
// region, or -1 when there is none.
func lastNonEmpty(r *core.Result) (*core.Map, int) {
	if len(r.Maps) == 0 {
		return nil, -1
	}
	m, last := r.Maps[0], -1
	for i, reg := range m.Regions {
		if reg.Count > 0 {
			last = i
		}
	}
	return m, last
}

// serveShards serves every shard file of a local manifest over loopback
// fabric servers and returns the remote manifest.
func serveShards(t *testing.T, local string) string {
	t.Helper()
	m, err := shard.ReadManifest(local)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, len(m.Shards))
	for i, sf := range m.Shards {
		st, err := colstore.OpenWith(filepath.Join(filepath.Dir(local), sf.File), colstore.Options{Mode: colstore.ModeLazy, CacheBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(remote.NewServer(st).Handler())
		t.Cleanup(func() {
			ts.Close()
			st.Close()
		})
		urls[i] = ts.URL
	}
	rm, err := shard.RemoteManifest(m, urls)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "remote.atlm")
	if err := shard.WriteManifestFile(path, rm); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGeneratedFabricIdentity runs the net on a fixed seed and a fresh
// one (or on -identity.seed alone); every failure names its seed. Each
// seed's table runs it twice: as generated, and sorted by i with narrow
// bands on i, so that selections whose bitmaps hold a few words of the
// table meet every residency, drill and sample.
func TestGeneratedFabricIdentity(t *testing.T) {
	seeds := []int64{1, time.Now().UnixNano()}
	if *identitySeed != 0 {
		seeds = []int64{*identitySeed}
	}
	for _, seed := range seeds {
		t.Logf("seed %d (rerun with -identity.seed=%d)", seed, seed)
		r := rand.New(rand.NewSource(seed))
		rows := identityChunk*(4+r.Intn(12)) + r.Intn(3) - 1
		tbl := identityTable(seed, rows)
		cats, err := storage.Dictionary(tbl.Column(3))
		if err != nil {
			t.Fatal(err)
		}
		queries := identityQueries(r, 5, cats)
		identityNet(t, r, fmt.Sprintf("seed %d, %d rows", seed, rows), tbl, queries)
		narrow := []string{"EXPLORE t"}
		for len(narrow) < 5 {
			lo := r.Intn(40)
			narrow = append(narrow, fmt.Sprintf("EXPLORE t WHERE i BETWEEN %d AND %d", lo, lo+r.Intn(3)))
		}
		identityNet(t, r, fmt.Sprintf("seed %d, %d rows sorted by i", seed, rows), sortedBy(tbl, "i"), append(narrow, queries[1:]...))
	}
}

// sortedBy returns tbl's rows ordered by the Int64 column attr, NULLs
// last, ties in row order.
func sortedBy(tbl *storage.Table, attr string) *storage.Table {
	col := tbl.Column(tbl.Schema().Index(attr)).(*storage.Int64Column)
	idx := make([]int, tbl.NumRows())
	for i := range idx {
		idx[i] = i
	}
	key := func(row int) (bool, int64) { return col.IsNull(row), col.At(row) }
	sort.SliceStable(idx, func(a, b int) bool {
		na, va := key(idx[a])
		nb, vb := key(idx[b])
		return !na && (nb || va < vb)
	})
	return tbl.Gather(tbl.Name(), idx)
}

// identityNet checks that every query, its drill, its samples and its
// row-order answers (rowOrderAnswers) answer on tbl's lazy shards and
// fabric, each opened eagerly and deferred — a few shards and several,
// drawn from r — exactly as in memory, at Parallelism 1 and 2. Before
// any of that opens a deferred set's shards, samePlans checks that it
// plans as its eager twin.
func identityNet(t *testing.T, r *rand.Rand, label string, tbl *storage.Table, queries []string) {
	t.Helper()
	memory := residency{name: "memory", table: tbl}
	want, _ := identityAnswers(t, memory, 1, queries)
	wantOrder := rowOrderAnswers(t, memory, 1, queries)
	for _, shards := range []int{1 + r.Intn(2), 3 + r.Intn(3)} {
		local := filepath.Join(t.TempDir(), "t.atlm")
		if _, err := shard.WriteSharded(local, tbl, shard.IngestOptions{Shards: shards, ChunkSize: identityChunk}); err != nil {
			t.Fatal(err)
		}
		lazy, err := shard.OpenWith(local, shard.Options{Store: colstore.Options{Mode: colstore.ModeLazy, CacheBytes: 4 << 10}})
		if err != nil {
			t.Fatal(err)
		}
		defer lazy.Close()
		deferred, err := shard.OpenWith(local, shard.Options{Store: colstore.Options{Mode: colstore.ModeLazy, CacheBytes: 4 << 10}, Defer: true})
		if err != nil {
			t.Fatal(err)
		}
		defer deferred.Close()
		served := serveShards(t, local)
		openFabric := func(deferred bool) *shard.Set {
			set, err := shard.OpenWith(served, shard.Options{
				Store:  colstore.Options{Mode: colstore.ModeLazy, CacheBytes: 4 << 10},
				Defer:  deferred,
				Remote: remote.NewOpener(remote.Options{Timeout: 10 * time.Second}),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { set.Close() })
			return set
		}
		fabric, fabricEager := openFabric(true), openFabric(false)
		for _, pair := range []struct{ eager, deferred residency }{
			{residency{"lazy shards", lazy.Table(), lazy}, residency{"deferred shards", deferred.Table(), deferred}},
			{residency{"fabric eager", fabricEager.Table(), fabricEager}, residency{"fabric", fabric.Table(), fabric}},
		} {
			samePlans(t, fmt.Sprintf("%s, %d shards", label, shards), pair.eager, pair.deferred, queries)
		}
		for _, par := range []int{1, 2} {
			wantSampled := gatheredAnswers(t, tbl, par, queries)
			wantStatements := statementOracle(t, tbl, par, queries)
			for _, res := range []residency{
				memory,
				{"lazy shards", lazy.Table(), lazy},
				{"deferred shards", deferred.Table(), deferred},
				{"fabric", fabric.Table(), fabric},
				{"fabric eager", fabricEager.Table(), fabricEager},
			} {
				got, gotSampled := identityAnswers(t, res, par, queries)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s, %d shards, %s at parallelism %d, answer %d differs:\nwant:\n%s\ngot:\n%s",
							label, shards, res.name, par, i, want[i], got[i])
					}
				}
				for i := range wantSampled {
					if gotSampled[i] != wantSampled[i] {
						t.Errorf("%s, %d shards, %s at parallelism %d, sampled answer %d differs from the gathered sample:\nwant:\n%s\ngot:\n%s",
							label, shards, res.name, par, i, wantSampled[i], gotSampled[i])
					}
				}
				for i, got := range statementAnswers(t, res, par, queries) {
					if want := wantStatements[i]; got != want {
						t.Errorf("%s, %d shards, %s at parallelism %d, statement answer %d (%s) differs from its own Cartographer's:\nwant:\n%s\ngot:\n%s",
							label, shards, res.name, par, i, statementSurfaces[i%len(statementSurfaces)], want, got)
					}
				}
				for i, got := range rowOrderAnswers(t, res, par, queries) {
					if got != wantOrder[i] {
						t.Errorf("%s, %d shards, %s at parallelism %d, row-order answer %d differs:\nwant:\n%s\ngot:\n%s",
							label, shards, res.name, par, i, wantOrder[i], got)
					}
				}
			}
		}
	}
}

// samePlans checks that a deferred set plans every query as the eager
// set of the same manifest: EXPLAIN gives the same verdict for every
// chunk before the deferred set opens a shard (planning opens none) and
// after its explorations have opened them, and one exploration of each
// query bills the same chunks scanned, pruned and full to its ledger.
func samePlans(t *testing.T, label string, eager, deferred residency, queries []string) {
	t.Helper()
	explains := func(res residency) []string {
		var out []string
		for _, text := range queries {
			st, err := cql.Parse(text, res.table)
			if err != nil {
				t.Fatal(err)
			}
			ex, err := engine.ExplainQuery(res.table, st.Query, nil)
			if err != nil {
				t.Fatalf("%s: explain %s on %s: %v", label, text, res.name, err)
			}
			out = append(out, fmt.Sprint(ex.Verdicts))
		}
		return out
	}
	ledgers := func(res residency) []string {
		cart := res.cartographer(t, 1)
		var out []string
		for _, text := range queries {
			st, err := cql.Parse(text, res.table)
			if err != nil {
				t.Fatal(err)
			}
			led := new(obsv.Ledger)
			if _, err := cart.ExploreCtx(obsv.WithLedger(context.Background(), led), st.Query); err != nil {
				t.Fatalf("%s: %s on %s: %v", label, text, res.name, err)
			}
			sn := led.Snapshot()
			out = append(out, fmt.Sprintf("%d scanned, %d pruned, %d full", sn.ChunksScanned, sn.ChunksPruned, sn.ChunksFull))
		}
		return out
	}
	compare := func(what string, got, want []string) {
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: %s of %s on %s: %s, on %s: %s", label, what, queries[i], deferred.name, got[i], eager.name, want[i])
			}
		}
	}
	wantPlans, before := explains(eager), explains(deferred)
	if n := deferred.set.OpenedShards(); n != 0 {
		t.Errorf("%s: planning opened %d shards of %s", label, n, deferred.name)
	}
	compare("the plan before its shards open", before, wantPlans)
	compare("the ledger", ledgers(deferred), ledgers(eager))
	compare("the plan after its shards open", explains(deferred), wantPlans)
}
