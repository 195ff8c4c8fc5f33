// Census walk-through: reproduces the paper's introductory scenario
// (Figure 2). A user who only knows the column names explores a survey
// dataset; Atlas proposes one map grouping {age, sex} and another
// grouping {education, salary}, leaving the independent eye_color alone.
// The example then walks a two-level drill-down with a session, showing
// the "answering queries with queries" loop of Figure 1.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	table := atlas.CensusDataset(50000, 7)
	ex, err := atlas.New(table, atlas.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Step 1 — the user issues the introductory query of the paper:")
	cql := "EXPLORE census WHERE age BETWEEN 17 AND 90 AND education IN ('HS','BSc','MSc')"
	fmt.Println("   ", cql)
	st, err := ex.Parse(cql)
	if err != nil {
		log.Fatal(err)
	}

	sess := ex.NewSession()
	node, err := sess.Explore(st.Query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nAtlas returns maps instead of tuples:")
	fmt.Print(atlas.FormatResult(node.Result))

	// Warm the cache with the regions the user is likely to open
	// (anticipative computation, paper Section 5.1).
	sess.Prefetch(4)

	// Find the {education, salary} map and open its >50K region.
	mapIdx, regionIdx := -1, -1
	for mi, m := range node.Result.Maps {
		if m.Key() == "education,salary" {
			for ri, r := range m.Regions {
				for _, p := range r.Query.Preds {
					if p.Attr == "salary" && p.MatchString(">50K") {
						mapIdx, regionIdx = mi, ri
					}
				}
			}
		}
	}
	if mapIdx < 0 {
		log.Fatal("census example: expected an {education, salary} map with a >50K region")
	}

	fmt.Printf("\nStep 2 — the user picks map %d, region %d (the high earners) and drills down:\n",
		mapIdx+1, regionIdx+1)
	node2, err := sess.DrillDown(mapIdx, regionIdx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(atlas.FormatResult(node2.Result))

	fmt.Println("\nStep 3 — not satisfied, the user goes back and tries another direction:")
	if _, err := sess.Back(); err != nil {
		log.Fatal(err)
	}
	node3, err := sess.DrillDown(0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(atlas.FormatResult(node3.Result))

	fmt.Println("\nExploration tree:")
	for _, n := range sess.History() {
		prefix := ""
		if n.Parent >= 0 {
			prefix = "  └─ "
		}
		fmt.Printf("%s[%d] %s → %d rows, %d maps\n",
			prefix, n.ID, n.Query.String(), n.Result.BaseCount, len(n.Result.Maps))
	}
}
