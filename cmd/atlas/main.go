// Command atlas is the interactive explorer: a terminal front-end to the
// mapping engine (the paper's GUI layer, adapted to a REPL).
//
// Usage:
//
//	atlas -dataset census            # explore a bundled synthetic dataset
//	atlas -csv data.csv -table name  # explore a CSV file
//	atlas -store data.atl            # explore a columnar store file
//	atlas -store data.atlm           # explore a sharded store (manifest)
//	atlas ingest -csv data.csv -out data.atl [-table name] [-chunk 65536]
//	atlas ingest -csv data.csv -shards 4 [-out data.atlm]
//	atlas remote-manifest -manifest data.atlm -out remote.atlm \
//	    -urls http://host1:9001,http://host2:9001
//	atlas workload -in workload.jsonl [-v]
//	atlas replay [-target URL] [-pacing closed|open] [-speed 10] [-slo-strict] workload.jsonl
//
// The ingest subcommand converts a CSV file into the on-disk columnar
// store format (".atl"): per-column chunked segments with zone maps,
// which reopen without re-parsing and let scans skip chunks that cannot
// match a predicate. With -shards N it splits the table into N shard
// files plus a JSON manifest (contiguous, chunk-aligned row ranges in
// table order), which explorations fan out across.
// -store explores either kind of file directly — manifests are detected
// by content, not extension.
//
// The remote-manifest subcommand rewrites a local manifest's shard
// locations into the URLs of atlasd -serve-shard processes, producing
// the coordinator manifest of a scale-out deployment; -store (here and
// in atlasd) opens such manifests through the remote shard fabric.
//
// The workload subcommand summarizes a recorded workload file (atlasd
// -record-workload, or GET /api/workload); replay runs it against a
// server twice — a sequential reference pass, then the paced concurrent
// pass — fails unless the two answer byte-identically, and scores the
// second against an SLO. Without -target it serves the bundled census
// table (100000 rows) in process.
//
// REPL commands:
//
//	explore <CQL>      run an exploration, e.g. explore EXPLORE census
//	explain <CQL>      dry-run a query against zone maps (no chunk I/O)
//	maps               re-print the current ranked maps
//	pick <map> <reg>   drill down into a region (1-based indexes)
//	back               return to the parent exploration
//	history            show the drill-down tree walked so far
//	schema             print the table schema
//	help               this text
//	quit               exit
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/colstore"
	"repro/internal/obsv"
	"repro/internal/shard"
)

func main() {
	subcommands := map[string]func([]string, io.Writer) error{
		"ingest":          runIngest,
		"remote-manifest": runRemoteManifest,
		"workload":        runWorkload,
		"replay":          runReplay,
	}
	if len(os.Args) > 1 {
		if run, ok := subcommands[os.Args[1]]; ok {
			if err := run(os.Args[2:], os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "atlas %s: %v\n", os.Args[1], err)
				os.Exit(1)
			}
			return
		}
	}
	var (
		dataset = flag.String("dataset", "census", "bundled dataset: census, body, sky, orders")
		rows    = flag.Int("rows", 50000, "rows to generate for bundled datasets")
		seed    = flag.Int64("seed", 1, "generator seed")
		csvPath = flag.String("csv", "", "explore a CSV file instead of a bundled dataset")
		tblName = flag.String("table", "", "table name for -csv (defaults to the file path)")
		store   = flag.String("store", "", "explore a columnar store file (.atl) created with 'atlas ingest'")
		lazy    = flag.Bool("lazy", false, "force lazy (memory-tiered) store opens: chunks decode on first touch")
		eager   = flag.Bool("eager", false, "force eager store opens (full decode up front)")
		cacheB  = flag.Int64("cachebudget", 0, "decoded-chunk cache budget in bytes for lazy opens (0 = env/unbounded)")
		deferS  = flag.Bool("defer", false, "defer opening shard files until first touch (sharded stores)")
		verbose = flag.Bool("v", false, "print each exploration's own scan verdicts, decodes and cache hits (and a lazy store's I/O counters) after it")
		profile = flag.Bool("profile", false, "trace every exploration and print its span tree as JSON (phase timings, chunk-scan deltas, remote shard spans)")
	)
	flag.Parse()

	ex, handle, err := makeExplorer(*dataset, *rows, *seed, *csvPath, *tblName, *store, atlas.StoreOpenOptions{
		Lazy: *lazy, Eager: *eager, CacheBytes: *cacheB, Defer: *deferS,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "atlas:", err)
		os.Exit(1)
	}
	if handle != nil {
		defer handle.Close()
	}
	table := ex.Table()
	sess := ex.NewSession()

	// -v prints an exploration's own ledger: its scan verdicts, decodes
	// and cache hits, then the store's lifetime I/O counters.
	printStats := func(led *obsv.Ledger) {
		if !*verbose {
			return
		}
		sn := led.Snapshot()
		fmt.Printf("[scan] pruned=%d full=%d scanned=%d decoded=%d cache-hits=%d",
			sn.ChunksPruned, sn.ChunksFull, sn.ChunksScanned, sn.ChunksDecoded, sn.ChunkCacheHits)
		if handle != nil && handle.Lazy() {
			io := handle.IOStats()
			fmt.Printf(" [store] decoded=%d cache-hits=%d bytes-read=%d cache-bytes=%d",
				io.ChunksDecoded, io.CacheHits, io.BytesRead, io.CacheBytes)
			if st := handle.Sharded(); st != nil {
				fmt.Printf(" shards-open=%d/%d", st.OpenedShards(), st.NumShards())
			}
		}
		fmt.Println()
	}
	// Explorations and drill-downs run under a ledger of their own. With
	// -profile they also run under a trace, and the resulting span tree
	// (whose chunk counts the ledger scopes to this run) is printed after
	// the maps.
	traced := func(name string, run func(ctx context.Context) (*atlas.Node, error)) error {
		led := new(obsv.Ledger)
		ctx := obsv.WithLedger(context.Background(), led)
		tr, root := obsv.NewTrace(name)
		if *profile {
			ctx = obsv.WithSpan(ctx, root)
		}
		node, err := run(ctx)
		root.End()
		if err != nil {
			return err
		}
		printNode(node)
		if *profile {
			printProfile(tr.Tree())
		}
		printStats(led)
		return nil
	}

	fmt.Printf("Atlas explorer — table %q (%d rows, %d columns). Type 'help' for commands.\n",
		table.Name(), table.NumRows(), table.NumCols())
	fmt.Printf("Try: explore EXPLORE %s\n", table.Name())

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("atlas> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		switch strings.ToLower(cmd) {
		case "quit", "exit":
			return
		case "help":
			printHelp()
		case "schema":
			sums, err := atlas.Summarize(table)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			for _, sum := range sums {
				fmt.Println(" ", sum.String())
			}
		case "explain":
			plan, err := ex.Explain(rest)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			printExplain(plan)
		case "explore":
			st, err := ex.Parse(rest)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			q, err := st.Plain() // a session runs under the explorer's options
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if err := traced("explore", func(ctx context.Context) (*atlas.Node, error) {
				return sess.ExploreCtx(ctx, q)
			}); err != nil {
				fmt.Println("error:", err)
				continue
			}
			sess.Prefetch(4)
		case "maps":
			node, err := sess.Current()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			printNode(node)
		case "pick":
			parts := strings.Fields(rest)
			if len(parts) != 2 {
				fmt.Println("usage: pick <map> <region> (1-based)")
				continue
			}
			mi, err1 := strconv.Atoi(parts[0])
			ri, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil {
				fmt.Println("usage: pick <map> <region> (1-based)")
				continue
			}
			if err := traced("drill", func(ctx context.Context) (*atlas.Node, error) {
				return sess.DrillDownCtx(ctx, mi-1, ri-1)
			}); err != nil {
				fmt.Println("error:", err)
				continue
			}
			sess.Prefetch(4)
		case "why":
			parts := strings.Fields(rest)
			if len(parts) != 2 {
				fmt.Println("usage: why <map> <region> (1-based)")
				continue
			}
			mi, err1 := strconv.Atoi(parts[0])
			ri, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil {
				fmt.Println("usage: why <map> <region> (1-based)")
				continue
			}
			node, err := sess.Current()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if mi < 1 || mi > len(node.Result.Maps) {
				fmt.Println("error: map index out of range")
				continue
			}
			m := node.Result.Maps[mi-1]
			if ri < 1 || ri > len(m.Regions) {
				fmt.Println("error: region index out of range")
				continue
			}
			profiles, err := ex.DescribeRegion(m.Regions[ri-1].Query)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("what makes %s special:\n", m.Regions[ri-1].Query.String())
			for i, p := range profiles {
				if i >= 5 {
					break
				}
				fmt.Println("  -", p.String())
			}
		case "peek":
			parts := strings.Fields(rest)
			if len(parts) != 2 {
				fmt.Println("usage: peek <map> <region> (1-based)")
				continue
			}
			mi, err1 := strconv.Atoi(parts[0])
			ri, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil {
				fmt.Println("usage: peek <map> <region> (1-based)")
				continue
			}
			node, err := sess.Current()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if mi < 1 || mi > len(node.Result.Maps) {
				fmt.Println("error: map index out of range")
				continue
			}
			m := node.Result.Maps[mi-1]
			if ri < 1 || ri > len(m.Regions) {
				fmt.Println("error: region index out of range")
				continue
			}
			examples, err := ex.RepresentativeExamples(m.Regions[ri-1].Query, 5)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			header := make([]string, table.NumCols())
			for i := 0; i < table.NumCols(); i++ {
				header[i] = table.Schema().Field(i).Name
			}
			fmt.Println("representative tuples:", strings.Join(header, " | "))
			for _, e := range examples {
				fmt.Println("  ", strings.Join(e.Values, " | "))
			}
		case "interests":
			w := sess.Interest()
			if len(w) == 0 {
				fmt.Println("no drill-downs yet — no learned interests")
				continue
			}
			for attr, weight := range w {
				fmt.Printf("  %-20s %.2f\n", attr, weight)
			}
		case "back":
			node, err := sess.Back()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			printNode(node)
		case "history":
			for _, n := range sess.History() {
				indent := ""
				if n.Parent >= 0 {
					indent = "  "
				}
				fmt.Printf("%s[%d] %s (%d rows)\n", indent, n.ID, n.Query.String(), n.Result.BaseCount)
			}
		default:
			fmt.Printf("unknown command %q; type 'help'\n", cmd)
		}
	}
}

// runIngest implements the "atlas ingest" subcommand: CSV in, columnar
// store file (or sharded store: manifest plus shard files) out.
func runIngest(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ingest", flag.ContinueOnError)
	var (
		csvPath = fs.String("csv", "", "CSV file to ingest (required)")
		outPath = fs.String("out", "", "output store path (default: CSV path with .atl extension, .atlm when sharded)")
		tblName = fs.String("table", "", "table name stored in the file (default: CSV path)")
		chunk   = fs.Int("chunk", 0, "rows per chunk; positive multiple of 64 (default 65536)")
		shards  = fs.Int("shards", 1, "split the table across this many shard files plus a manifest")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *csvPath == "" {
		return fmt.Errorf("-csv is required")
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be >= 1")
	}
	sharded := *shards > 1
	dst := *outPath
	if dst == "" {
		ext := ".atl"
		if sharded {
			ext = ".atlm"
		}
		dst = strings.TrimSuffix(*csvPath, filepath.Ext(*csvPath)) + ext
	}
	start := time.Now()
	table, err := atlas.LoadCSVFile(*tblName, *csvPath)
	if err != nil {
		return err
	}
	parsed := time.Now()
	if sharded {
		err = atlas.SaveSharded(table, dst, atlas.ShardIngestOptions{
			Shards:    *shards,
			ChunkSize: *chunk,
		})
	} else {
		err = colstore.WriteFile(dst, table, *chunk)
	}
	if err != nil {
		return err
	}
	info, err := os.Stat(dst)
	if err != nil {
		return err
	}
	size := *chunk
	if size == 0 {
		size = colstore.DefaultChunkSize
	}
	chunks := (table.NumRows() + size - 1) / size
	if sharded {
		fmt.Fprintf(out, "ingested %q: %d rows, %d columns, %d chunk(s), %d range shard(s) -> %s\n",
			table.Name(), table.NumRows(), table.NumCols(), chunks, *shards, dst)
	} else {
		fmt.Fprintf(out, "ingested %q: %d rows, %d columns, %d chunk(s) -> %s (%d bytes)\n",
			table.Name(), table.NumRows(), table.NumCols(), chunks, dst, info.Size())
	}
	fmt.Fprintf(out, "parse %v, write %v\n",
		parsed.Sub(start).Round(time.Millisecond), time.Since(parsed).Round(time.Millisecond))
	return nil
}

// runRemoteManifest implements "atlas remote-manifest": local manifest
// in, coordinator manifest with http(s):// shard locations out.
func runRemoteManifest(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("remote-manifest", flag.ContinueOnError)
	var (
		manifest = fs.String("manifest", "", "local shard manifest to rewrite (required)")
		outPath  = fs.String("out", "", "output manifest path (required)")
		urls     = fs.String("urls", "", "comma-separated shard server URLs, one per shard in manifest order; empty entries keep the shard local; separate an entry's replicas with | (primary first), e.g. http://a:8093|http://b:8093 (required)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *manifest == "" || *outPath == "" || *urls == "" {
		return fmt.Errorf("-manifest, -out and -urls are required")
	}
	m, err := shard.ReadManifest(*manifest)
	if err != nil {
		return err
	}
	list := strings.Split(*urls, ",")
	for i := range list {
		list[i] = strings.TrimSpace(list[i])
	}
	rm, err := shard.RemoteManifest(m, list)
	if err != nil {
		return err
	}
	if err := shard.WriteManifestFile(*outPath, rm); err != nil {
		return err
	}
	nRemote, nReplicas := 0, 0
	for _, sf := range rm.Shards {
		if shard.IsRemoteLocation(sf.File) {
			nRemote++
		}
		nReplicas += len(sf.Replicas)
	}
	fmt.Fprintf(out, "wrote %s: %d shard(s), %d remote, %d replica(s)\n", *outPath, len(rm.Shards), nRemote, nReplicas)
	fmt.Fprintf(out, "serve each shard with: atlasd -addr :PORT -serve-shard SHARD.atl (replicas: same file, another host/port)\n")
	fmt.Fprintf(out, "then explore with:     atlas -store %s  (or atlasd -store %s)\n", *outPath, *outPath)
	return nil
}

// makeExplorer builds the Explorer for the selected source; -store paths
// may name a single .atl file or a shard manifest, opened with the
// given memory-tier options (the returned handle is non-nil for stores
// and owns the file mappings).
func makeExplorer(dataset string, rows int, seed int64, csvPath, tblName, store string, so atlas.StoreOpenOptions) (*atlas.Explorer, *atlas.StoreHandle, error) {
	if store != "" {
		handle, err := atlas.OpenStoreWith(store, so)
		if err != nil {
			return nil, nil, err
		}
		ex, err := handle.NewExplorer(atlas.DefaultOptions())
		if err != nil {
			handle.Close()
			return nil, nil, err
		}
		return ex, handle, nil
	}
	table, err := loadTable(dataset, rows, seed, csvPath, tblName)
	if err != nil {
		return nil, nil, err
	}
	ex, err := atlas.New(table, atlas.DefaultOptions())
	return ex, nil, err
}

func loadTable(dataset string, rows int, seed int64, csvPath, tblName string) (*atlas.Table, error) {
	if csvPath != "" {
		return atlas.LoadCSVFile(tblName, csvPath)
	}
	switch dataset {
	case "census":
		return atlas.CensusDataset(rows, seed), nil
	case "body":
		t, _ := atlas.BodyMetricsDataset(rows, seed)
		return t, nil
	case "sky":
		return atlas.SkySurveyDataset(rows, seed), nil
	case "orders":
		orders, customers := atlas.OrdersDataset(rows, rows/40+1, seed)
		return atlas.JoinFK(orders, "cid", customers, "cid", "orders")
	default:
		return nil, fmt.Errorf("unknown dataset %q (want census, body, sky or orders)", dataset)
	}
}

// printExplain renders a dry-run plan: per-predicate zone-map verdicts,
// the combined chunk outcome, and the cold-cache I/O estimate — all
// computed without decoding a single chunk.
func printExplain(p *atlas.QueryExplain) {
	fmt.Printf("EXPLAIN %s: %d rows, %d chunk(s) of %d rows\n", p.Table, p.Rows, p.NumChunks, p.ChunkSize)
	for _, pe := range p.Preds {
		if pe.Never {
			fmt.Printf("  %-40s never matches (empty dictionary intersection)\n", pe.Pred)
			continue
		}
		fmt.Printf("  %-40s prune=%d full=%d scan=%d\n", pe.Pred, pe.Prune, pe.Full, pe.Scan)
	}
	fmt.Printf("chunks: %d pruned, %d full, %d scanned", p.ChunksPruned, p.ChunksFull, p.ChunksScanned)
	if p.Unsampled > 0 {
		fmt.Printf(", %d unsampled", p.Unsampled)
	}
	fmt.Println()
	fmt.Printf("cold-cache estimate: %d chunk fetch(es), ~%d KiB decoded\n",
		p.EstChunkFetches, (p.EstBytesDecoded+1023)/1024)
}

// printProfile renders a profiled exploration's span tree as indented
// JSON, ready to pipe into jq or a flamegraph converter.
func printProfile(tree *atlas.SpanProfile) {
	b, err := json.MarshalIndent(tree, "", "  ")
	if err != nil {
		fmt.Println("profile error:", err)
		return
	}
	fmt.Printf("[profile]\n%s\n", b)
}

func printNode(n *atlas.Node) {
	fmt.Print(atlas.FormatResult(n.Result))
	fmt.Println("pick a region with: pick <map#> <region#>  (e.g. pick 1 1)")
}

func printHelp() {
	fmt.Println(`commands:
  explore <CQL>      run an exploration, e.g. explore EXPLORE census WHERE age BETWEEN 20 AND 60
  explain <CQL>      dry-run a query: zone-map verdicts per predicate and chunk, estimated I/O, no chunk reads
  maps               re-print the current ranked maps
  pick <map> <reg>   drill down into a region (1-based)
  why <map> <reg>    explain what makes a region special vs the whole table
  peek <map> <reg>   show representative example tuples from a region
  interests          show the attribute interests learned from your drill-downs
  back               return to the parent exploration
  history            show the exploration tree
  schema             print the table schema
  quit               exit`)
}
