package query

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// oraclePredString is Predicate.String as it was written with
// fmt.Sprintf; the append-based rendering must match it byte for byte.
func oraclePredString(p Predicate) string {
	switch p.Kind {
	case Range:
		lb, rb := "[", "]"
		if !p.LoIncl {
			lb = "("
		}
		if !p.HiIncl {
			rb = ")"
		}
		return fmt.Sprintf("%s IN %s%s, %s%s", p.Attr, lb, oracleFmtNum(p.Lo), oracleFmtNum(p.Hi), rb)
	case In:
		parts := make([]string, len(p.Values))
		for i, v := range p.Values {
			parts[i] = "'" + strings.ReplaceAll(v, "'", "''") + "'"
		}
		return fmt.Sprintf("%s IN {%s}", p.Attr, strings.Join(parts, ", "))
	case BoolEq:
		return fmt.Sprintf("%s = %t", p.Attr, p.BoolVal)
	default:
		return fmt.Sprintf("<invalid predicate on %s>", p.Attr)
	}
}

func oracleFmtNum(v float64) string {
	if v == math.Floor(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// oracleQueryString is Query.String as it was written with a
// strings.Builder over per-predicate strings.
func oracleQueryString(q Query) string {
	var b strings.Builder
	b.WriteString("EXPLORE ")
	if q.Table == "" {
		b.WriteString("?")
	} else {
		b.WriteString(q.Table)
	}
	if len(q.Preds) > 0 {
		b.WriteString(" WHERE ")
		parts := make([]string, len(q.Preds))
		for i, p := range q.Preds {
			parts[i] = oraclePredString(p)
		}
		b.WriteString(strings.Join(parts, " AND "))
	}
	return b.String()
}

func TestRenderMatchesSprintfOracle(t *testing.T) {
	nums := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -2.25, 17, 90.000001,
		math.Inf(1), math.Inf(-1), math.NaN(),
		1e15 - 1, 1e15, 1e15 + 2, -(1e15 - 1), -1e15, 999999999999999.5,
		1 << 53, -(1 << 53), 1e300, -1e300, 5e-324, math.MaxFloat64, 123456789012,
		1e21, 1e-7, 0.1 + 0.2,
	}
	var preds []Predicate
	for i, lo := range nums {
		hi := nums[(i+5)%len(nums)]
		preds = append(preds,
			NewRange("x", lo, hi),
			NewRangeHalfOpen("y_col", lo, hi),
			Predicate{Attr: "z", Kind: Range, Lo: lo, Hi: hi},
			Predicate{Attr: "w", Kind: Range, Lo: lo, Hi: hi, HiIncl: true})
	}
	preds = append(preds,
		NewIn("c"),
		NewIn("c", "only"),
		NewIn("c", "it's", "a''b", "'", "plain", "x<y&z", "line\u2028sep", "", "ünï"),
		NewIn("edu", "BSc", "MSc", "PhD"),
		NewBoolEq("active", true),
		NewBoolEq("active", false),
		Predicate{Attr: "bad", Kind: PredKind(9)},
	)
	for _, p := range preds {
		if got, want := p.String(), oraclePredString(p); got != want {
			t.Errorf("Predicate.String() = %q, oracle %q", got, want)
		}
	}
	queries := []Query{New(""), New("t"), New("census", preds[0]), New("sky", preds...)}
	for i := range preds {
		queries = append(queries, New("t", preds[i], preds[len(preds)-1-i]))
	}
	for _, q := range queries {
		if got, want := q.String(), oracleQueryString(q); got != want {
			t.Errorf("Query.String() = %q, oracle %q", got, want)
		}
	}
}
