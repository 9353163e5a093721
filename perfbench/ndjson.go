package main

import "encoding/json"

// ndjsonMatch is the outcome of pairing one NDJSON batch's response lines
// with its request lines by the unique file name each request carries.
type ndjsonMatch struct {
	// ok maps a request line's index to the index of the single successful
	// response line that answers it.
	ok map[int]int
	// failed counts request lines without exactly one successful response
	// line (lost, answered with an error, or answered twice), plus the
	// response lines that answer no request line (garbled, or naming no
	// file of the batch).
	failed int
	// lost counts request lines with no successful response line at all;
	// extra counts response lines beyond one per request line.
	lost, extra int
}

// matchNDJSON pairs response lines with request files. Order is not
// trusted: a line answers the request whose file name it echoes.
func matchNDJSON(files []string, lines [][]byte) ndjsonMatch {
	byName := make(map[string]int, len(files))
	for i, f := range files {
		byName[f] = i
	}
	good := make(map[int][]int) // request index -> successful response lines
	answered := make([]int, len(files))
	m := ndjsonMatch{ok: map[int]int{}}
	for li, line := range lines {
		var resp struct {
			File  string `json:"file"`
			Error string `json:"error"`
		}
		i, known := -1, false
		if json.Unmarshal(line, &resp) == nil {
			i, known = byName[resp.File]
		}
		if !known {
			m.failed++
			m.extra++
			continue
		}
		answered[i]++
		if answered[i] > 1 {
			m.extra++
		}
		if resp.Error == "" {
			good[i] = append(good[i], li)
		}
	}
	for i := range files {
		if answered[i] == 1 && len(good[i]) == 1 {
			m.ok[i] = good[i][0]
			continue
		}
		m.failed++
		if len(good[i]) == 0 {
			m.lost++
		}
	}
	return m
}
