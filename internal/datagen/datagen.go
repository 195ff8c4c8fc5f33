// Package datagen generates the seeded synthetic datasets used by tests,
// examples and the benchmark. Each generator plants a known dependency
// or cluster structure so that tests can check Atlas against ground
// truth (see DESIGN.md "Substitutions": these stand in for the paper's
// census-style survey data, SDSS and TPC datasets).
package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/storage"
)

// Census generates the paper's introductory survey dataset (Figure 2):
// Sex, Salary, Age, Eye color, Education. Planted structure:
//
//   - Age is bimodal: a young cohort around 28 and an older cohort around
//     68, with the boundary near 55 (the paper's Figure 3 cut).
//   - Sex depends on Age: the young cohort skews Male, the older Female.
//   - Education and Salary are strongly dependent (MSc mostly earns >50K,
//     HS mostly <50K).
//   - Eye color is independent of everything.
//
// Atlas should therefore produce one map on {Age, Sex} and another on
// {Education, Salary}, with Eye color left alone.
func Census(n int, seed int64) *storage.Table {
	r := rand.New(rand.NewSource(seed))
	schema := storage.MustSchema(
		storage.Field{Name: "age", Type: storage.Int64},
		storage.Field{Name: "sex", Type: storage.String},
		storage.Field{Name: "education", Type: storage.String},
		storage.Field{Name: "salary", Type: storage.String},
		storage.Field{Name: "eye_color", Type: storage.String},
	)
	b := storage.NewBuilder("census", schema)
	eyes := []string{"Blue", "Green", "Brown"}
	for i := 0; i < n; i++ {
		// 48/52 cohort split: the global median then falls robustly at
		// the old cohort's clamp atom (age 55), the paper's Figure 3
		// boundary, instead of jittering across the inter-cohort gap.
		young := r.Float64() < 0.48
		var age int
		if young {
			age = clampInt(int(28+r.NormFloat64()*6), 17, 54)
		} else {
			age = clampInt(int(68+r.NormFloat64()*8), 55, 90)
		}
		var sex string
		if young {
			sex = pick(r, 0.75, "Male", "Female")
		} else {
			sex = pick(r, 0.75, "Female", "Male")
		}
		var edu, salary string
		switch x := r.Float64(); {
		case x < 0.3:
			edu = "MSc"
			salary = pick(r, 0.85, ">50K", "<50K")
		case x < 0.7:
			edu = "BSc"
			salary = pick(r, 0.5, ">50K", "<50K")
		default:
			edu = "HS"
			salary = pick(r, 0.15, ">50K", "<50K")
		}
		eye := eyes[r.Intn(len(eyes))]
		b.MustAppendRow(age, sex, edu, salary, eye)
	}
	return b.MustBuild()
}

// BodyMetrics generates the dataset of Figures 4 and 5: a dependent trio
// {age, income, education_years} and a dependent pair {size, weight}, the
// two groups mutually independent.
//
// The {size, weight} pair carries the Figure 5 cluster structure: a
// "small" cluster (size≈140, weight≈45) and a "large" cluster (size≈160,
// weight≈65). A global median cut on weight lands near 55 and separates
// neither cluster cleanly; only a per-size-region cut (composition)
// recovers the planted boundaries near 45 and 65. Cluster returns the
// planted cluster label of each row for recovery scoring.
func BodyMetrics(n int, seed int64) (*storage.Table, []int) {
	r := rand.New(rand.NewSource(seed))
	schema := storage.MustSchema(
		storage.Field{Name: "age", Type: storage.Int64},
		storage.Field{Name: "income", Type: storage.Float64},
		storage.Field{Name: "education_years", Type: storage.Int64},
		storage.Field{Name: "size", Type: storage.Float64},
		storage.Field{Name: "weight", Type: storage.Float64},
	)
	b := storage.NewBuilder("body", schema)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		// dependent trio driven by a latent "career stage"
		stage := r.Float64()
		age := clampInt(int(20+stage*45+r.NormFloat64()*3), 18, 70)
		income := 20000 + stage*60000 + r.NormFloat64()*4000
		eduYears := clampInt(int(8+stage*10+r.NormFloat64()*1.5), 6, 22)

		// independent body cluster
		var size, weight float64
		if r.Float64() < 0.5 {
			labels[i] = 0
			size = 140 + r.NormFloat64()*5
			weight = 45 + r.NormFloat64()*3.5
		} else {
			labels[i] = 1
			size = 160 + r.NormFloat64()*5
			weight = 65 + r.NormFloat64()*3.5
		}
		b.MustAppendRow(age, income, eduYears, size, weight)
	}
	return b.MustBuild(), labels
}

// Figure5 generates the exact scenario of the paper's Figure 5: four
// clusters over (size, weight) where the weight boundary depends on the
// size region —
//
//	size≈140: subclusters at weight≈40 and weight≈50 (local cut ≈45)
//	size≈160: subclusters at weight≈60 and weight≈70 (local cut ≈65)
//
// The global weight median (≈55) separates the size groups, not the
// subclusters, so the Product grid leaves every cell half-mixed while
// Composition recovers all four clusters. Returns the table and the
// planted label (0–3) per row.
func Figure5(n int, seed int64) (*storage.Table, []int) {
	r := rand.New(rand.NewSource(seed))
	schema := storage.MustSchema(
		storage.Field{Name: "size", Type: storage.Float64},
		storage.Field{Name: "weight", Type: storage.Float64},
	)
	b := storage.NewBuilder("fig5", schema)
	sizes := []float64{140, 140, 160, 160}
	weights := []float64{40, 50, 60, 70}
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := r.Intn(4)
		labels[i] = c
		b.MustAppendRow(sizes[c]+r.NormFloat64()*3, weights[c]+r.NormFloat64()*1.5)
	}
	return b.MustBuild(), labels
}

// ClusterPair generates two numeric columns x and y bound by a latent
// two-cluster structure with unbalanced cluster sizes: a fraction frac of
// the rows belongs to cluster 0 (x≈0, y≈0), the rest to cluster 1 (x≈10,
// y≈10). With frac far from 0.5 a global median cut on either column
// lands inside the dominant cluster and misses the boundary, while a
// variance-optimal cut recovers it — the Section 3.1 cutting-method
// trade-off. Returns the table and the planted labels.
func ClusterPair(n int, frac float64, seed int64) (*storage.Table, []int) {
	r := rand.New(rand.NewSource(seed))
	schema := storage.MustSchema(
		storage.Field{Name: "x", Type: storage.Float64},
		storage.Field{Name: "y", Type: storage.Float64},
	)
	b := storage.NewBuilder("pair", schema)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := 1
		if r.Float64() < frac {
			c = 0
		}
		labels[i] = c
		b.MustAppendRow(float64(c*10)+r.NormFloat64(), float64(c*10)+r.NormFloat64())
	}
	return b.MustBuild(), labels
}

// SkySurvey generates an SDSS-like photometric table: sky coordinates and
// five magnitudes. Three object classes (star, galaxy, quasar) occupy
// distinct color loci, making {mag_g, mag_r, mag_i} mutually dependent,
// while ra/dec are uniform (independent). The class column is included so
// examples can show a drill-down discovering it, and can be projected away
// for blind exploration.
func SkySurvey(n int, seed int64) *storage.Table {
	r := rand.New(rand.NewSource(seed))
	schema := storage.MustSchema(
		storage.Field{Name: "ra", Type: storage.Float64},
		storage.Field{Name: "dec", Type: storage.Float64},
		storage.Field{Name: "mag_u", Type: storage.Float64},
		storage.Field{Name: "mag_g", Type: storage.Float64},
		storage.Field{Name: "mag_r", Type: storage.Float64},
		storage.Field{Name: "mag_i", Type: storage.Float64},
		storage.Field{Name: "class", Type: storage.String},
	)
	b := storage.NewBuilder("sky", schema)
	classes := []string{"star", "galaxy", "quasar"}
	base := map[string][4]float64{
		"star":   {16, 15.2, 14.9, 14.8},
		"galaxy": {19, 17.8, 17.0, 16.6},
		"quasar": {18.5, 18.4, 18.3, 18.3},
	}
	for i := 0; i < n; i++ {
		cl := classes[r.Intn(len(classes))]
		m := base[cl]
		b.MustAppendRow(
			r.Float64()*360,
			r.Float64()*180-90,
			m[0]+r.NormFloat64()*0.3,
			m[1]+r.NormFloat64()*0.3,
			m[2]+r.NormFloat64()*0.3,
			m[3]+r.NormFloat64()*0.3,
			cl,
		)
	}
	return b.MustBuild()
}

// Orders generates a TPC-like fact/dimension pair: orders(oid, cid,
// amount, quantity, priority) and customers(cid, segment, region). The
// planted cross-table dependency is segment ↔ amount: "gold" customers
// place large orders. It only becomes visible after the FK join, which is
// exactly the Section 5.2 scenario.
func Orders(nOrders, nCustomers int, seed int64) (orders, customers *storage.Table) {
	r := rand.New(rand.NewSource(seed))
	cs := storage.MustSchema(
		storage.Field{Name: "cid", Type: storage.Int64},
		storage.Field{Name: "segment", Type: storage.String},
		storage.Field{Name: "region", Type: storage.String},
	)
	cb := storage.NewBuilder("customers", cs)
	segments := make([]string, nCustomers)
	regions := []string{"north", "south", "east", "west"}
	for c := 0; c < nCustomers; c++ {
		seg := pick(r, 0.3, "gold", "standard")
		segments[c] = seg
		cb.MustAppendRow(c, seg, regions[r.Intn(len(regions))])
	}
	os := storage.MustSchema(
		storage.Field{Name: "oid", Type: storage.Int64},
		storage.Field{Name: "cid", Type: storage.Int64},
		storage.Field{Name: "amount", Type: storage.Float64},
		storage.Field{Name: "quantity", Type: storage.Int64},
		storage.Field{Name: "priority", Type: storage.String},
	)
	ob := storage.NewBuilder("orders", os)
	for o := 0; o < nOrders; o++ {
		c := r.Intn(nCustomers)
		var amount float64
		if segments[c] == "gold" {
			amount = 800 + r.NormFloat64()*150
		} else {
			amount = 120 + r.NormFloat64()*40
		}
		if amount < 1 {
			amount = 1
		}
		ob.MustAppendRow(o, c, amount, 1+r.Intn(20), pick(r, 0.2, "urgent", "normal"))
	}
	return ob.MustBuild(), cb.MustBuild()
}

// WithJunkColumns returns a copy of t extended with the Section 5.2
// nuisance columns: a unique row id, a high-cardinality hex code, and a
// free-text comment. Screening should flag all three.
func WithJunkColumns(t *storage.Table, seed int64) *storage.Table {
	r := rand.New(rand.NewSource(seed))
	n := t.NumRows()
	fields := t.Schema().Fields()
	cols := make([]storage.Column, 0, t.NumCols()+3)
	for i := 0; i < t.NumCols(); i++ {
		cols = append(cols, t.Column(i))
	}
	ids := make([]string, n)
	codes := make([]string, n)
	comments := make([]string, n)
	words := []string{"lorem", "ipsum", "dolor", "sit", "amet", "consectetur", "adipiscing"}
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("row-%08d", i)
		codes[i] = fmt.Sprintf("%08x", r.Uint32())
		comments[i] = fmt.Sprintf("%s %s %s %d", words[r.Intn(len(words))], words[r.Intn(len(words))], words[r.Intn(len(words))], i)
	}
	fields = append(fields,
		storage.Field{Name: "row_id", Type: storage.String},
		storage.Field{Name: "code", Type: storage.String},
		storage.Field{Name: "comment", Type: storage.String},
	)
	cols = append(cols,
		storage.NewStringColumn(ids, nil),
		storage.NewStringColumn(codes, nil),
		storage.NewStringColumn(comments, nil),
	)
	return storage.MustTable(t.Name()+"_junk", storage.MustSchema(fields...), cols)
}

func pick(r *rand.Rand, p float64, a, b string) string {
	if r.Float64() < p {
		return a
	}
	return b
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
