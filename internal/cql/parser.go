package cql

import (
	"fmt"
	"strconv"
	"strings"
)

// parse lexes and parses one EXPLORE statement into its syntax tree.
func parse(input string) (*tree, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if !p.at(TokEOF) {
		return nil, p.errf("unexpected %s after end of statement", p.peek().Kind)
	}
	return stmt, nil
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) peek() Token { return p.toks[p.pos] }

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) at(k TokenKind) bool { return p.peek().Kind == k }

func (p *parser) atKeyword(kw string) bool { return isKeyword(p.peek(), kw) }

func (p *parser) expect(k TokenKind) (Token, error) {
	if !p.at(k) {
		return Token{}, p.errf("expected %s, found %s", k, p.describe(p.peek()))
	}
	return p.next(), nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.atKeyword(kw) {
		return p.errf("expected %s, found %s", strings.ToUpper(kw), p.describe(p.peek()))
	}
	p.next()
	return nil
}

func (p *parser) describe(t Token) string {
	if t.Kind == TokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Pos: p.peek().Pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) parseStatement() (*tree, error) {
	if err := p.expectKeyword("EXPLORE"); err != nil {
		return nil, err
	}
	tbl, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	stmt := &tree{Table: tbl.Text}
	if p.atKeyword("WHERE") {
		p.next()
		for {
			pred, err := p.parsePred()
			if err != nil {
				return nil, err
			}
			stmt.Preds = append(stmt.Preds, pred)
			if !p.atKeyword("AND") {
				break
			}
			p.next()
		}
	}
	if p.atKeyword("WITH") {
		p.next()
		if err := p.parseOptions(&stmt.Options); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

func (p *parser) parsePred() (pred, error) {
	attr, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	switch {
	case p.atKeyword("BETWEEN"):
		p.next()
		lo, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		return &rangePred{Name: attr.Text, Lo: lo, Hi: hi, LoIncl: true, HiIncl: true}, nil

	case p.atKeyword("IN"):
		p.next()
		switch p.peek().Kind {
		case TokLParen, TokLBracket:
			// could be a numeric interval [lo, hi] / [lo, hi) / (lo, hi]
			// or a parenthesized value list: an opening bracket, or a
			// closing one after two numbers, makes an interval, so
			// (lo, hi) is a list.
			if p.at(TokLBracket) || p.leftOpenInterval() {
				return p.parseInterval(attr)
			}
			return p.parseValueList(attr, TokRParen)
		case TokLBrace:
			return p.parseValueList(attr, TokRBrace)
		default:
			return nil, p.errf("expected '(', '[' or '{' after IN")
		}

	case p.at(TokEq):
		p.next()
		t := p.peek()
		switch {
		case t.Kind == TokNumber:
			v, err := p.parseNumber()
			if err != nil {
				return nil, err
			}
			return &eqPred{Name: attr.Text, Kind: litNumber, NumVal: v}, nil
		case t.Kind == TokString:
			p.next()
			return &eqPred{Name: attr.Text, Kind: litString, StrVal: t.Text}, nil
		case isKeyword(t, "TRUE"), isKeyword(t, "FALSE"):
			p.next()
			return &eqPred{Name: attr.Text, Kind: litBool, BoolVal: isKeyword(t, "TRUE")}, nil
		default:
			return nil, p.errf("expected literal after '=', found %s", p.describe(t))
		}

	case p.at(TokLt), p.at(TokLe), p.at(TokGt), p.at(TokGe):
		op := p.next()
		v, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		return &cmpPred{Name: attr.Text, Op: op.Kind, Val: v}, nil

	default:
		return nil, p.errf("expected BETWEEN, IN or a comparison after %q", attr.Text)
	}
}

// leftOpenInterval reports whether the tokens ahead read `( lo , hi ]`.
func (p *parser) leftOpenInterval() bool {
	want := []TokenKind{TokLParen, TokNumber, TokComma, TokNumber, TokRBracket}
	if p.pos+len(want) > len(p.toks) {
		return false
	}
	for i, k := range want {
		if p.toks[p.pos+i].Kind != k {
			return false
		}
	}
	return true
}

// parseInterval parses `[lo, hi]`, `[lo, hi)` or `(lo, hi]` after IN.
func (p *parser) parseInterval(attr Token) (pred, error) {
	loIncl := p.next().Kind == TokLBracket
	lo, err := p.parseNumber()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokComma); err != nil {
		return nil, err
	}
	hi, err := p.parseNumber()
	if err != nil {
		return nil, err
	}
	hiIncl := true
	switch p.peek().Kind {
	case TokRBracket:
		p.next()
	case TokRParen:
		hiIncl = false
		p.next()
	default:
		return nil, p.errf("expected ']' or ')' to close interval")
	}
	if !loIncl && !hiIncl {
		return nil, p.errf("an interval open at both ends is a value list: use (lo, hi] or [lo, hi)")
	}
	return &rangePred{Name: attr.Text, Lo: lo, Hi: hi, LoIncl: loIncl, HiIncl: hiIncl}, nil
}

// parseValueList parses a delimited list of literals after IN.
func (p *parser) parseValueList(attr Token, closer TokenKind) (pred, error) {
	p.next() // consume the opener
	var strs []string
	for {
		t := p.peek()
		switch t.Kind {
		case TokString:
			p.next()
			strs = append(strs, t.Text)
		case TokNumber:
			if _, err := p.parseNumber(); err != nil {
				return nil, err
			}
			strs = append(strs, t.Text)
		default:
			if isKeyword(t, "TRUE") || isKeyword(t, "FALSE") {
				p.next()
				strs = append(strs, strings.ToLower(t.Text))
				break
			}
			return nil, p.errf("expected literal in value list, found %s", p.describe(t))
		}
		if p.at(TokComma) {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(closer); err != nil {
		return nil, err
	}
	if len(strs) == 0 {
		return nil, p.errf("empty value list")
	}
	// Numeric sets are represented as their texts and resolved at bind
	// time.
	return &setPred{Name: attr.Text, Values: strs}, nil
}

func (p *parser) parseNumber() (float64, error) {
	t, err := p.expect(TokNumber)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(t.Text, 64)
	if err != nil {
		return 0, &SyntaxError{t.Pos, fmt.Sprintf("malformed number %q", t.Text)}
	}
	return v, nil
}

func (p *parser) parseOptions(o *Options) error {
	seen := map[string]bool{}
	for p.at(TokIdent) {
		kw := strings.ToUpper(p.peek().Text)
		switch kw {
		case "MAPS", "REGIONS", "PREDICATES", "SPLITS":
			p.next()
			v, err := p.parseNumber()
			if err != nil {
				return err
			}
			if v != float64(int(v)) || v < 1 {
				return p.errf("%s needs a positive integer", kw)
			}
			switch kw {
			case "MAPS":
				o.Maps = int(v)
			case "REGIONS":
				o.Regions = int(v)
			case "PREDICATES":
				o.Predicates = int(v)
			case "SPLITS":
				o.Splits = int(v)
			}
		case "CUT", "MERGE", "DISTANCE":
			p.next()
			t, err := p.expect(TokIdent)
			if err != nil {
				return err
			}
			switch kw {
			case "CUT":
				o.Cut = strings.ToLower(t.Text)
			case "MERGE":
				o.Merge = strings.ToLower(t.Text)
			case "DISTANCE":
				o.Distance = strings.ToLower(t.Text)
			}
		case "THRESHOLD", "SAMPLE":
			p.next()
			v, err := p.parseNumber()
			if err != nil {
				return err
			}
			if v <= 0 {
				return p.errf("%s needs a positive number", kw)
			}
			if kw == "SAMPLE" && v > 1 {
				return p.errf("SAMPLE needs a fraction in (0, 1]")
			}
			if kw == "THRESHOLD" {
				o.Threshold = v
			} else {
				o.Sample = v
			}
		default:
			return p.errf("unknown option %q", p.peek().Text)
		}
		if seen[kw] {
			return p.errf("duplicate option %s", kw)
		}
		seen[kw] = true
	}
	return nil
}
