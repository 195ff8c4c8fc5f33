package atlas

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/datagen"
	"repro/internal/remote"
	"repro/internal/shard"
	"repro/internal/storage"
)

// columnTableEdges is a table of the values a column table can get
// wrong, over 4 shards of 64-row chunks and three rows more: a float
// column with NULLs, −0 and +0 as its smallest values, +0 first, and
// its largest value in a chunk that also holds a NaN, so no zone map
// bounds it (TestPartialsWithNaN's case); an all-NULL and an all-NaN
// column; a column holding −Inf and +Inf in different shards, whose
// histogram bins only its finite values; an integer key; and
// NULL-salted string and bool columns whose shards meet their values in
// different orders.
func columnTableEdges() *storage.Table {
	b := storage.NewBuilder("edges", storage.MustSchema(
		storage.Field{Name: "f", Type: storage.Float64},
		storage.Field{Name: "none", Type: storage.Float64},
		storage.Field{Name: "nan", Type: storage.Float64},
		storage.Field{Name: "inf", Type: storage.Float64},
		storage.Field{Name: "k", Type: storage.Int64},
		storage.Field{Name: "c", Type: storage.String},
		storage.Field{Name: "b", Type: storage.Bool},
	))
	cats := []string{"ash", "birch", "cedar", "elm"}
	for row := 0; row < 12*64+3; row++ {
		var f, c, bo any = float64(row%13) + 0.25, cats[(row/128+row)%len(cats)], row%3 == 0
		switch {
		case row == 150:
			f = math.NaN()
		case row == 151:
			f = 1000.0
		case row == 40:
			f = 0.0
		case row == 300:
			f = math.Copysign(0, -1)
		case row%17 == 0:
			f = nil
		}
		if row%11 == 0 {
			c = nil
		}
		if row%7 == 0 {
			bo = nil
		}
		inf := float64(row % 29)
		switch row {
		case 90, 91:
			inf = math.Inf(1)
		case 500:
			inf = math.Inf(-1)
		}
		b.MustAppendRow(f, nil, math.NaN(), inf, int64(row*7919%1000), c, bo)
	}
	return b.MustBuild()
}

// columnTableOracle computes set's column table in one pass over its
// combined rows, gathered into memory and read a value at a time: the
// sum restarts at each shard's first row and the shards' sums add in
// shard order, as the merge adds them, and the histogram bins the finite
// values over their extremes, counting −Inf and +Inf apart.
func columnTableOracle(t *testing.T, set *shard.Set) []*shard.ColumnPartial {
	t.Helper()
	tbl, err := set.Table().Materialize()
	if err != nil {
		t.Fatal(err)
	}
	starts := map[int]bool{}
	for i := 0; i < set.NumShards(); i++ {
		starts[set.ShardOffset(i)] = true
	}
	out := make([]*shard.ColumnPartial, tbl.NumCols())
	for ci := range out {
		col := tbl.Column(ci)
		p := &shard.ColumnPartial{Rows: tbl.NumRows()}
		var dict []string
		if col.Type() == storage.String {
			if dict, err = storage.Dictionary(set.Table().Column(ci)); err != nil {
				t.Fatal(err)
			}
			p.CatCounts = make([]int, len(dict))
		}
		var finite []float64
		shardSum := 0.0
		lo, hi := math.Inf(1), math.Inf(-1)
		for row := 0; row < tbl.NumRows(); row++ {
			if starts[row] && row > 0 {
				p.Sum += shardSum
				shardSum = 0
			}
			v := col.Value(row)
			if v == nil {
				p.Nulls++
				continue
			}
			p.Count++
			switch v := v.(type) {
			case string:
				p.CatCounts[indexOf(dict, v)]++
			case bool:
				if v {
					p.Trues++
				} else {
					p.Falses++
				}
			default:
				x, ok := v.(float64)
				if !ok {
					x = float64(v.(int64))
				}
				shardSum += x
				switch {
				case math.IsInf(x, -1):
					p.NegInf++
				case math.IsInf(x, 1):
					p.PosInf++
				case x == x:
					finite = append(finite, x)
				}
				if x < lo {
					lo = x
				}
				if x > hi {
					hi = x
				}
			}
		}
		p.Sum += shardSum
		if lo <= hi {
			p.Min, p.Max, p.HasMinMax = lo, hi, true
		}
		if len(finite) > 0 {
			flo, fhi := math.Inf(1), math.Inf(-1)
			for _, x := range finite {
				if x < flo {
					flo = x
				}
				if x > fhi {
					fhi = x
				}
			}
			if p.Hist, err = shard.SummaryHist(flo, fhi); err != nil {
				t.Fatal(err)
			}
			for _, x := range finite {
				p.Hist.Observe(x)
			}
		}
		out[ci] = p
	}
	return out
}

func indexOf(dict []string, v string) int {
	for i, d := range dict {
		if d == v {
			return i
		}
	}
	return -1
}

// renderColumnTable formats a column table with every float exact, NaN
// and −0 included.
func renderColumnTable(parts []*shard.ColumnPartial) string {
	var b strings.Builder
	for ci, p := range parts {
		q := *p
		q.Hist = nil
		fmt.Fprintf(&b, "%d: %+v", ci, q)
		if p.Hist != nil {
			fmt.Fprintf(&b, " hist %v %v", p.Hist.Edges, p.Hist.Counts)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestColumnTableResidencies: a set's column table (Set.Partials, what
// GET /api/shards reports) is the same whether its range shards open
// eagerly, lazily or deferred, or are served by loopback fabric
// servers, and matches the gathered oracle. A fabric computes the table
// without a chunk fetch.
func TestColumnTableResidencies(t *testing.T) {
	lazy := colstore.Options{Mode: colstore.ModeLazy, CacheBytes: 4 << 10}
	for _, tc := range []struct {
		tbl      *storage.Table
		chunkLen int
	}{
		{datagen.Census(3_000, 7), 256},
		{datagen.SkySurvey(3_000, 7), 256},
		{columnTableEdges(), 64},
	} {
		name := tc.tbl.Name()
		local := filepath.Join(t.TempDir(), name+".atlm")
		if _, err := shard.WriteSharded(local, tc.tbl, shard.IngestOptions{Shards: 4, ChunkSize: tc.chunkLen}); err != nil {
			t.Fatal(err)
		}
		opener := remote.NewOpener(remote.Options{Timeout: 10 * time.Second})
		defer opener.Close()
		open := func(path string, o shard.Options) *shard.Set {
			set, err := shard.OpenWith(path, o)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { set.Close() })
			return set
		}
		eager := open(local, shard.Options{Store: colstore.Options{Mode: colstore.ModeEager}})
		if eager.NumShards() != 4 {
			t.Fatalf("%s: %d range shards, want 4", name, eager.NumShards())
		}
		want := renderColumnTable(columnTableOracle(t, eager))
		for _, res := range []struct {
			name string
			set  *shard.Set
		}{
			{"eager", eager},
			{"lazy", open(local, shard.Options{Store: lazy})},
			{"deferred", open(local, shard.Options{Store: lazy, Defer: true})},
			{"fabric", open(serveShards(t, local), shard.Options{Store: lazy, Remote: opener})},
		} {
			fetches := opener.Stats().ChunkFetches
			parts, err := res.set.Partials(2)
			if err != nil {
				t.Fatalf("%s %s: %v", name, res.name, err)
			}
			if got := renderColumnTable(parts); got != want {
				t.Errorf("%s %s: column table\n%s\nwant the oracle's\n%s", name, res.name, got, want)
			}
			if n := opener.Stats().ChunkFetches - fetches; n != 0 {
				t.Errorf("%s %s: the column table fetched %d chunks", name, res.name, n)
			}
		}
	}
}
