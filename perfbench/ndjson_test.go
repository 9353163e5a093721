package main

import (
	"fmt"
	"testing"
)

func line(file, errMsg string) []byte {
	if errMsg != "" {
		return []byte(fmt.Sprintf(`{"version":2,"file":%q,"error":%q}`+"\n", file, errMsg))
	}
	return []byte(fmt.Sprintf(`{"version":2,"file":%q,"loops":[]}`+"\n", file))
}

func TestMatchNDJSON(t *testing.T) {
	files := []string{"a.c", "b.c", "c.c"}
	cases := []struct {
		name                    string
		lines                   [][]byte
		ok, failed, lost, extra int
	}{
		{"all answered", [][]byte{line("a.c", ""), line("b.c", ""), line("c.c", "")}, 3, 0, 0, 0},
		{"out of order", [][]byte{line("c.c", ""), line("a.c", ""), line("b.c", "")}, 3, 0, 0, 0},
		{"dropped line", [][]byte{line("a.c", ""), line("c.c", "")}, 2, 1, 1, 0},
		{"duplicated line", [][]byte{line("a.c", ""), line("b.c", ""), line("b.c", ""), line("c.c", "")}, 2, 1, 0, 1},
		{"error line", [][]byte{line("a.c", ""), line("b.c", "boom"), line("c.c", "")}, 2, 1, 1, 0},
		// The stream handlers' defect: the last request line arrives cut
		// short and the stream ends with a read error.
		{"truncated tail", [][]byte{line("a.c", ""), line("b.c", ""),
			line("", "bad request line: unexpected EOF"),
			line("", "bad request stream: http: invalid Read on closed Body")}, 2, 3, 1, 2},
		{"garbled line", [][]byte{line("a.c", ""), []byte("{\"file\":\"b.c\",\"loo"), line("c.c", "")}, 2, 2, 1, 1},
	}
	for _, c := range cases {
		m := matchNDJSON(files, c.lines)
		if len(m.ok) != c.ok || m.failed != c.failed || m.lost != c.lost || m.extra != c.extra {
			t.Errorf("%s: ok %d failed %d lost %d extra %d, want %d %d %d %d",
				c.name, len(m.ok), m.failed, m.lost, m.extra, c.ok, c.failed, c.lost, c.extra)
		}
	}
}
