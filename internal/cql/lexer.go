// Package cql implements the conjunctive query language of the Atlas
// front-end — the paper's "proprietary query language [13] … a
// restriction of SQL which can only express conjunction of predicates".
//
// Grammar (keywords case-insensitive):
//
//	query   = "EXPLORE" ident [ "WHERE" pred { "AND" pred } ] [ "WITH" option { option } ]
//	pred    = ident "BETWEEN" number "AND" number
//	        | ident "IN" "(" literal { "," literal } ")"
//	        | ident "IN" "{" literal { "," literal } "}"
//	        | ident "IN" "[" number "," number ("]"|")")
//	        | ident "IN" "(" number "," number "]"
//	        | ident ("="|"<"|"<="|">"|">=") literal
//	option  = ("MAPS"|"REGIONS"|"PREDICATES"|"SPLITS") integer
//	        | ("CUT"|"MERGE"|"DISTANCE") ident
//	        | ("THRESHOLD"|"SAMPLE") number
//	literal = number | string | "TRUE" | "FALSE"
//
// Strings are single-quoted with ” escaping. The bracketed IN form gives
// the paper's interval notation: age IN [17, 90]; a bound a comparison
// leaves open is ±Inf, as a statement's canonical text renders it.
package cql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies lexer tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokString
	TokComma
	TokLParen
	TokRParen
	TokLBracket
	TokRBracket
	TokLBrace
	TokRBrace
	TokEq
	TokLt
	TokLe
	TokGt
	TokGe
)

var tokenNames = [...]string{
	TokEOF: "end of input", TokIdent: "identifier", TokNumber: "number", TokString: "string",
	TokComma: "','", TokLParen: "'('", TokRParen: "')'", TokLBracket: "'['", TokRBracket: "']'",
	TokLBrace: "'{'", TokRBrace: "'}'", TokEq: "'='", TokLt: "'<'", TokLe: "'<='", TokGt: "'>'", TokGe: "'>='",
}

func (k TokenKind) String() string {
	if k >= 0 && int(k) < len(tokenNames) {
		return tokenNames[k]
	}
	return fmt.Sprintf("TokenKind(%d)", int(k))
}

// Token is one lexical unit with its source position.
type Token struct {
	Kind TokenKind
	Text string // identifier name, number text, or decoded string value
	Pos  int    // byte offset in the input
}

// SyntaxError reports a lexing or parsing failure with its position.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("cql: position %d: %s", e.Pos, e.Msg)
}

// Lex tokenizes the input. It returns a token stream ending with TokEOF,
// or a SyntaxError on malformed input. Outside string literals the input
// must be UTF-8: identifiers are runs of Unicode letters, digits and
// underscores; numbers are ASCII, ±Inf included.
func Lex(input string) ([]Token, error) {
	var toks []Token
	i := 0
	n := len(input)
	for i < n {
		c, size := utf8.DecodeRuneInString(input[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			return nil, &SyntaxError{i, fmt.Sprintf("invalid UTF-8 byte %#x", input[i])}
		case unicode.IsSpace(c):
			i += size
		case c == ',':
			toks = append(toks, Token{TokComma, ",", i})
			i++
		case c == '(':
			toks = append(toks, Token{TokLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, Token{TokRParen, ")", i})
			i++
		case c == '[':
			toks = append(toks, Token{TokLBracket, "[", i})
			i++
		case c == ']':
			toks = append(toks, Token{TokRBracket, "]", i})
			i++
		case c == '{':
			toks = append(toks, Token{TokLBrace, "{", i})
			i++
		case c == '}':
			toks = append(toks, Token{TokRBrace, "}", i})
			i++
		case c == '=':
			toks = append(toks, Token{TokEq, "=", i})
			i++
		case c == '<':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, Token{TokLe, "<=", i})
				i += 2
			} else {
				toks = append(toks, Token{TokLt, "<", i})
				i++
			}
		case c == '>':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, Token{TokGe, ">=", i})
				i += 2
			} else {
				toks = append(toks, Token{TokGt, ">", i})
				i++
			}
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, &SyntaxError{start, "unterminated string literal"}
			}
			toks = append(toks, Token{TokString, sb.String(), start})
		case (c == '-' || c == '+') && strings.HasPrefix(input[i+1:], "Inf"):
			// A range bound a comparison left open, as query.Query's
			// String renders it.
			toks = append(toks, Token{TokNumber, input[i : i+4], i})
			i += 4
		case isASCIIDigit(input[i]) || c == '-' || c == '+' || c == '.':
			start := i
			i++
			for i < n && (isASCIIDigit(input[i]) || input[i] == '.' ||
				input[i] == 'e' || input[i] == 'E' ||
				((input[i] == '-' || input[i] == '+') && (input[i-1] == 'e' || input[i-1] == 'E'))) {
				i++
			}
			text := input[start:i]
			if text == "-" || text == "+" || text == "." {
				return nil, &SyntaxError{start, fmt.Sprintf("malformed number %q", text)}
			}
			toks = append(toks, Token{TokNumber, text, start})
		case unicode.IsLetter(c) || c == '_':
			start := i
			for i < n {
				r, size := utf8.DecodeRuneInString(input[i:])
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
					break
				}
				i += size
			}
			toks = append(toks, Token{TokIdent, input[start:i], start})
		default:
			return nil, &SyntaxError{i, fmt.Sprintf("unexpected character %q", c)}
		}
	}
	toks = append(toks, Token{TokEOF, "", n})
	return toks, nil
}

func isASCIIDigit(b byte) bool { return '0' <= b && b <= '9' }

// isKeyword reports whether an identifier token equals the keyword,
// case-insensitively.
func isKeyword(t Token, kw string) bool {
	return t.Kind == TokIdent && strings.EqualFold(t.Text, kw)
}
