// Explainer: the paper's Section 5.2 "real life users" features working
// together. After an exploration, the example (1) explains *why* a region
// is interesting by charting its attributes against the whole table,
// (2) shows representative example tuples from the region, and (3)
// demonstrates personalized ranking: after the user repeatedly drills
// into demographic maps, maps on those attributes rise in the ranking.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro"
)

func main() {
	table := atlas.CensusDataset(50000, 7)
	ex, err := atlas.New(table, atlas.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	sess := ex.NewSession()
	st, err := ex.Parse("EXPLORE census")
	if err != nil {
		log.Fatal(err)
	}
	node, err := sess.Explore(st.Query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ranked maps:")
	for i, m := range node.Result.Maps {
		fmt.Printf("  #%d {%s} entropy %.3f\n", i+1, m.Key(), m.Entropy)
	}

	// (1) Why is the MSc & >50K region interesting?
	var target atlas.Region
	found := false
	for _, m := range node.Result.Maps {
		for _, r := range m.Regions {
			hasMSc, hasHigh := false, false
			for _, p := range r.Query.Preds {
				if p.MatchString("MSc") {
					hasMSc = true
				}
				if p.MatchString(">50K") {
					hasHigh = true
				}
			}
			if hasMSc && hasHigh {
				target, found = r, true
			}
		}
	}
	if !found {
		log.Fatal("expected an MSc/>50K region")
	}
	fmt.Printf("\nwhy is %s interesting?\n", renderPreds(target.Query))
	profiles, err := ex.DescribeRegion(target.Query)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range profiles {
		fmt.Println("  -", p.String())
	}

	// (2) Representative tuples from that region.
	reps, err := ex.RepresentativeExamples(target.Query, 3)
	if err != nil {
		log.Fatal(err)
	}
	header := make([]string, table.NumCols())
	for i := range header {
		header[i] = table.Schema().Field(i).Name
	}
	fmt.Println("\nrepresentative tuples:")
	fmt.Println("  ", strings.Join(header, " | "))
	for _, r := range reps {
		fmt.Println("  ", strings.Join(r.Values, " | "))
	}

	// (3) Personalization: drill into the demographic map a few times.
	demoIdx := -1
	for i, m := range node.Result.Maps {
		if m.Key() == "age,sex" {
			demoIdx = i
		}
	}
	if demoIdx < 0 {
		log.Fatal("expected an {age,sex} map")
	}
	for i := 0; i < 3; i++ {
		if _, err := sess.DrillDown(demoIdx, 0); err != nil {
			log.Fatal(err)
		}
		if _, err := sess.Back(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nlearned interests after drilling into {age,sex} three times:")
	for attr, w := range sess.Interest() {
		fmt.Printf("  %-12s %.2f\n", attr, w)
	}
	fmt.Println("\npersonalized ranking (entropy boosted by interest):")
	for i, m := range sess.PersonalizedMaps(node.Result) {
		fmt.Printf("  #%d {%s}\n", i+1, m.Key())
	}
}

func renderPreds(q atlas.Query) string {
	parts := make([]string, len(q.Preds))
	for i, p := range q.Preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}
