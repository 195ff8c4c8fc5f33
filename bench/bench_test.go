package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

func smokeConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: 0.3, trace: trace, smoke: true, sc: smokeScale,
		par: min(runtime.NumCPU(), 4), tmp: t.TempDir()}
	if trace {
		cfg.traceOut = filepath.Join(cfg.tmp, workload+".trace.json")
	}
	return cfg
}

// Every workload runs end to end at smoke scale, untraced and traced,
// without a failed op, and reports exactly the declared metrics.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res, err := runOne(smokeConfig(t, w, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			checkNames(t, res, endToEndDecls)
			for name, m := range res.Metrics {
				if m.Value <= 0 || math.IsNaN(m.Value) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}

			cfg := smokeConfig(t, w, true)
			res, err = runOne(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d notes=%v", res.Correct, res.Failed, res.Notes)
			}
			checkNames(t, res, perLayerDecls)
			// Layer separation: a workload reports 0 for a layer it does
			// not reach.
			for name, m := range res.Metrics {
				remoteOnly := strings.HasPrefix(name, "remote.")
				serverOnly := strings.HasPrefix(name, "server.") || strings.HasPrefix(name, "session.") || strings.HasPrefix(name, "open_")
				switch {
				case remoteOnly && w != "fabric_remote", serverOnly && w != "serve_zipf":
					if m.Value != 0 {
						t.Errorf("%s = %v on %s, want 0", name, m.Value, w)
					}
				}
			}
			inMemory := w == "lib_explore" || w == "serve_zipf"
			if got := res.Metrics["colstore.bytes_read_per_op"].Value; inMemory && got != 0 {
				t.Errorf("colstore.bytes_read_per_op = %v on %s, want 0", got, w)
			} else if !inMemory && got == 0 {
				t.Errorf("colstore.bytes_read_per_op = 0 on %s, want > 0", w)
			}
			if w == "fabric_remote" && res.Metrics["remote.rpcs_per_op"].Value == 0 {
				t.Error("remote.rpcs_per_op = 0 on fabric_remote")
			}
			var tf traceFile
			raw, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 || len(tf.Ops) == 0 {
				t.Errorf("trace file has %d spans, %d ops", len(tf.Spans), len(tf.Ops))
			}
		})
	}
}

func checkNames(t *testing.T, res *result, decls []metricDecl) {
	t.Helper()
	want := map[string]string{}
	for _, d := range decls {
		want[d.Name] = d.Unit
	}
	for name, m := range res.Metrics {
		if unit, ok := want[name]; !ok {
			t.Errorf("emitted metric %s is not declared", name)
		} else if unit != m.Unit {
			t.Errorf("metric %s has unit %q, declared %q", name, m.Unit, unit)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("declared metric %s was not emitted", name)
	}
}

// The same seed yields a byte-identical op stream; another seed does not.
func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	render := func(seed int64) string {
		var b bytes.Buffer
		for _, st := range []*stream{skyMixStream(seed), skySlideStream(seed)} {
			for i := 0; i < 200; i++ {
				op := st.at(i)
				b.WriteString(st.name + " " + op.Class + " " + op.CQL + "\n")
			}
		}
		pool := censusPool(seed)
		for s := 0; s < 20; s++ {
			raw, _ := json.Marshal(sessionOps(seed, s, pool))
			b.Write(raw)
		}
		b.WriteString(strings.Join(statelessOps(seed, pool, 50), "\n"))
		b.WriteString(strings.Join(coldOps(seed, "narrow", 5), "\n"))
		return b.String()
	}
	if render(3) != render(3) {
		t.Error("the same seed gave two different op streams")
	}
	if render(3) == render(4) {
		t.Error("two seeds gave the same op stream")
	}
	// Reading a stream out of order does not change it.
	a, b := skyMixStream(5), skyMixStream(5)
	late := a.at(150)
	for i := 0; i <= 150; i++ {
		b.at(i)
	}
	if late != b.at(150) {
		t.Error("op 150 depends on how the stream was read")
	}
}

// The class mix is what puts p50 and p95 inside a class.
func TestClassMix(t *testing.T) {
	count := map[string]int{}
	st := skyMixStream(1)
	for i := 0; i < 400; i++ {
		count[st.at(i).Class]++
	}
	if want := map[string]int{"narrow": 60, "medium": 100, "wide": 200, "full": 40}; !reflect.DeepEqual(count, want) {
		t.Errorf("class mix %v, want %v", count, want)
	}
	picks := pickProbeOps(st, 48, 240)
	if len(picks) < 44 || len(picks) > 52 {
		t.Errorf("%d probe ops, want about 48", len(picks))
	}
}

// BENCHMARK.json and metrics.go declare the same workloads and metrics,
// and the file stays inside the driver's limits.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the binary's default is %d", doc.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths %v", doc.Paths)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	var workloads []string
	for _, w := range doc.Workloads {
		name(w.Name)
		workloads = append(workloads, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(workloads, workloadNames) {
		t.Errorf("workloads %v, metrics.go has %v", workloads, workloadNames)
	}
	var e2e, layers []metricDecl
	hasSetup := false
	for _, m := range doc.EndToEnd {
		name(m.Name)
		e2e = append(e2e, metricDecl{m.Name, m.Unit, m.Better, m.Bound})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range doc.PerLayer {
		name(m.Name)
		layers = append(layers, metricDecl{m.Name, m.Unit, m.Better, 0})
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if !reflect.DeepEqual(e2e, endToEndDecls) {
		t.Errorf("end_to_end differs from metrics.go:\n%v\n%v", e2e, endToEndDecls)
	}
	if !reflect.DeepEqual(layers, perLayerDecls) {
		t.Errorf("per_layer differs from metrics.go:\n%v\n%v", layers, perLayerDecls)
	}
	for _, d := range append(e2e, layers...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	if len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 || len(doc.Workloads) < 2 || len(doc.Workloads) > 8 {
		t.Error("BENCHMARK.json is outside the driver's list limits")
	}
	// 4 + 22 runs per workload, their set-up and two builds within 3420 s.
	if runs := 4 + 22*len(doc.Workloads); float64(runs)*(float64(doc.RunSeconds)+12) > 3420-240 {
		t.Errorf("%d runs of %d s plus set-up do not fit the driver's time limit", runs, doc.RunSeconds)
	}
}

func TestPercentiles(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {95, 9.55}, {100, 10}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 || percentile([]float64{3}, 95) != 3 {
		t.Error("percentile of none or one value")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v", got)
	}
	if got := mad([]float64{1, 1, 2, 2, 4, 6, 9}); got != 1 {
		t.Errorf("mad = %v, want 1", got)
	}
	if got := spaced(10, 4); !reflect.DeepEqual(got, []int{0, 2, 5, 7}) {
		t.Errorf("spaced(10,4) = %v", got)
	}
	if got := spaced(3, 5); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("spaced(3,5) = %v", got)
	}
}

// A span's self time is its duration minus the union of what its
// children cover: overlapping children count once, a child reaching past
// its parent is clipped, an aux span is nobody's child.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // 20 past the parent
		{ID: 4, Parent: 1, Name: "rpc", Start: 15, End: 20},
		{ID: 5, Parent: 0, Name: "aux", Start: 50, End: 80, Aux: true},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	self := selfTimes(spans)
	if got := spanMsPerOp(spans, self, "a"); len(got) != 1 || got[0] != 25e-6 {
		t.Errorf("spanMsPerOp(a) = %v", got)
	}
	if got := spanMsPerOp(spans, self, "aux"); got[0] != 30e-6 {
		t.Errorf("spanMsPerOp(aux) = %v, want the whole 30 ns", got)
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder()
	root := rec.begin(0, -1, "op", false)
	_ = rec.in(0, root, "child", func() error {
		if id, op := rec.current(); op != 0 || rec.spans[id].Name != "child" {
			t.Errorf("current = %d, op %d", id, op)
		}
		return nil
	})
	if id, _ := rec.current(); id != root {
		t.Errorf("after the child closed the current span is %d, want the root %d", id, root)
	}
	rec.end(root)
	if id, _ := rec.current(); id != -1 {
		t.Errorf("after the root closed the current span is %d", id)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDecl{"p50_ms", "ms", "lower", 0.10}
	higher := metricDecl{"ops_per_s", "1/s", "higher", 0.10}
	for _, c := range []struct {
		d               metricDecl
		old, cur, noise float64
		want            string
	}{
		{lower, 100, 109, 0.01, verdictOK},
		{lower, 100, 111, 0.01, verdictRegressed},
		{lower, 100, 50, 0.01, verdictOK},
		{higher, 100, 91, 0.01, verdictOK},
		{higher, 100, 89, 0.01, verdictRegressed},
		{higher, 100, 89, 0.2, verdictUnresolved},
	} {
		if got := judge(c.d, c.old, c.cur, c.noise); got != c.want {
			t.Errorf("judge(%s, %v→%v, noise %v) = %s, want %s", c.d.Name, c.old, c.cur, c.noise, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, smoke bool, p50 float64, failed int) string {
		res := newResult("lib_explore")
		res.Attempted, res.Failed = 100, failed
		for _, d := range endToEndDecls {
			res.set(d.Name, 10)
		}
		res.set("p50_ms", p50)
		r := &report{Schema: reportSchema, Smoke: smoke, Env: environment{Rows: 1, Seconds: 1},
			Workloads: map[string]*runReport{"lib_explore": {EndToEnd: res}}}
		path := filepath.Join(dir, name)
		if err := writeReport(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk("base.json", false, 10, 0)
	var out bytes.Buffer
	if err := compareFiles(&out, base, mk("same.json", false, 10.5, 0)); err != nil {
		t.Errorf("+5%% on a 15%% bound: %v\n%s", err, out.String())
	}
	if err := compareFiles(&out, base, mk("slow.json", false, 13, 0)); err == nil {
		t.Error("+30% passed")
	}
	if err := compareFiles(&out, base, mk("fails.json", false, 10, 1)); err == nil {
		t.Error("a new failed op passed")
	}
	if err := compareFiles(&out, base, mk("smoke.json", true, 10, 0)); err == nil || !strings.Contains(err.Error(), "smoke") {
		t.Errorf("smoke output was not refused: %v", err)
	}
}

func TestPinnedEnvironment(t *testing.T) {
	t.Setenv("ATLAS_STORE_MODE", "lazy")
	if err := run([]string{"-workload", "lib_explore", "-smoke"}); err == nil || !strings.Contains(err.Error(), "ATLAS_STORE_MODE") {
		t.Errorf("ran with ATLAS_STORE_MODE set: %v", err)
	}
}
