package main

import (
	"crypto/sha256"
	"errors"
	"strconv"
)

// wireAnswer is what the per-op check reads of a plan response.
type wireAnswer struct {
	answer
	cached, coalesced bool
	sched, service    float64
	xmlBytes          int
}

var errNotAnswer = errors.New("not a JSON object with well-formed members")

// scanAnswer reads a plan response in one pass, without unquoting: a
// response is 5-60 KB of XML escaped into one JSON string, and decoding
// it with encoding/json (~60 µs) for each of mix_small's 2000 answers a
// second made the load generator a third busier than checking them needs.
// Only the top-level members are told apart; the inside of a value is
// skipped, never interpreted (the verify pass decodes in full). xmlSHA is
// over the xml member as it stands in the body, quotes and escapes
// included: the daemon encodes equal strings to equal bytes.
func scanAnswer(body []byte) (w wireAnswer, err error) {
	i := skipSpace(body, 0)
	if i >= len(body) || body[i] != '{' {
		return w, errNotAnswer
	}
	for i = skipSpace(body, i+1); i < len(body) && body[i] != '}'; {
		keyEnd := valueEnd(body, i)
		colon := skipSpace(body, keyEnd)
		if body[i] != '"' || keyEnd < 0 || colon >= len(body) || body[colon] != ':' {
			return w, errNotAnswer
		}
		from := skipSpace(body, colon+1)
		to := valueEnd(body, from)
		if to < 0 {
			return w, errNotAnswer
		}
		raw := body[from:to]
		switch string(body[i+1 : keyEnd-1]) {
		case "key":
			if len(raw) >= 2 && raw[0] == '"' {
				w.key = string(raw[1 : len(raw)-1]) // a hex digest: nothing to unquote
			}
		case "cached":
			w.cached = string(raw) == "true"
		case "coalesced":
			w.coalesced = string(raw) == "true"
		case "rho":
			w.rho, err = strconv.ParseFloat(string(raw), 64)
		case "sched":
			w.sched, err = strconv.ParseFloat(string(raw), 64)
		case "service":
			w.service, err = strconv.ParseFloat(string(raw), 64)
		case "nodes_used":
			w.nodesUsed, err = strconv.Atoi(string(raw))
		case "xml":
			if len(raw) >= 2 && raw[0] == '"' {
				w.xmlBytes, w.xmlSHA = len(raw)-2, sha256.Sum256(raw)
			}
		}
		if err != nil {
			return w, err
		}
		if i = skipSpace(body, to); i < len(body) && body[i] == ',' {
			i = skipSpace(body, i+1)
		}
	}
	if i >= len(body) {
		return w, errNotAnswer
	}
	return w, nil
}

func skipSpace(b []byte, i int) int {
	for i >= 0 && i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// valueEnd returns the index just past the JSON value that starts at
// b[i] — a string, an object or array (brackets inside strings do not
// count), or a scalar, which ends at a comma, a closing bracket or white
// space — or -1 if the body ends first.
func valueEnd(b []byte, i int) int {
	depth := 0
	for ; i >= 0 && i < len(b); i++ {
		switch c := b[i]; c {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
			if i >= len(b) {
				return -1
			}
		case '{', '[':
			depth++
			continue
		case '}', ']':
			if depth == 0 {
				return i // the enclosing object closed behind a scalar
			}
			depth--
		case ',', ' ', '\n', '\t', '\r':
			if depth == 0 {
				return i
			}
			continue
		default:
			continue
		}
		if depth == 0 {
			return i + 1 // a string, object or array that just closed
		}
	}
	return -1
}
