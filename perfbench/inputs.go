package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"neurovec/internal/api"
	"neurovec/internal/dataset"
	"neurovec/internal/extractor"
	"neurovec/internal/lang"
	"neurovec/internal/lang/sema"
	"neurovec/internal/lower"
)

// file is one compile input: a unique client-chosen name, the C source and
// optional runtime values for symbolic loop bounds.
type file struct {
	name   string
	source string
	params map[string]int64
}

// body renders the single-form /v2/compile request (also one NDJSON line).
func (f file) body() []byte {
	b, err := json.Marshal(&api.CompileRequest{File: f.name, Source: f.source, Params: f.params})
	if err != nil {
		panic(err) // a CompileRequest of strings and ints always encodes
	}
	return b
}

// compiles reports whether the front end accepts the source: it parses,
// has at least one innermost loop, and lowers. Benchmark inputs must never
// fail, so generated sources that do not compile are left out.
func compiles(source string, params map[string]int64) bool {
	prog, err := lang.Parse(source)
	if err != nil || len(extractor.Loops(prog)) == 0 {
		return false
	}
	opts := lower.DefaultOptions()
	opts.ParamValues = params
	opts.Facts = sema.Check("", prog).Facts
	_, err = lower.Program(prog, opts)
	return err == nil
}

// generatedFiles draws n distinct compiling programs from the extended-
// grammar generator at the seed, named prefix/<index>_<family>.c.
func generatedFiles(prefix string, seed int64, n int) []file {
	var out []file
	seen := map[string]bool{}
	for batch := 0; len(out) < n; batch++ {
		set := dataset.Generate(dataset.GenConfig{N: n, Seed: seed + int64(batch)*7919, Extended: true})
		for _, s := range set.Samples {
			if len(out) == n {
				break
			}
			if seen[s.Source] || !compiles(s.Source, nil) {
				continue
			}
			seen[s.Source] = true
			out = append(out, file{name: fmt.Sprintf("%s/%05d_%s.c", prefix, len(out), s.Family), source: s.Source})
		}
	}
	return out
}

// workingSet is the edit session's 64 files: up to 16 TSVC kernels with
// two or more loops (nested or in sequence), the rest generated programs,
// both chosen by the seed.
func workingSet(seed int64) []file {
	var kernels []dataset.Benchmark
	for _, k := range dataset.TSVC() {
		prog, err := lang.Parse(k.Source)
		if err == nil && countLoops(prog) >= 2 && compiles(k.Source, k.ParamValues) {
			kernels = append(kernels, k)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(kernels), func(i, j int) { kernels[i], kernels[j] = kernels[j], kernels[i] })
	if len(kernels) > 16 {
		kernels = kernels[:16]
	}
	files := generatedFiles("ws", seed, 64-len(kernels))
	for _, k := range kernels {
		files = append(files, file{name: "ws/tsvc_" + k.Name + ".c", source: k.Source, params: k.ParamValues})
	}
	return files
}

func countLoops(p *lang.Program) int {
	n := 0
	for _, fn := range p.Funcs {
		n += len(fn.Loops())
	}
	return n
}

// editKind is what an editor request did to its file since the last send.
type editKind int

const (
	resubmit   editKind = iota // unchanged bytes: the response cache hits
	layoutEdit                 // comment moved: same LoopIDs, new bytes
	bodyEdit                   // one literal in one loop body changed
)

// editOp is one edit-session request: the file after the edit.
type editOp struct {
	kind editKind
	file file
}

// editSession replays an editor over a working set. Edits persist: each
// file keeps its current text (body edits accumulate) plus one marker
// comment whose line and revision a layout edit changes.
type editSession struct {
	rng   *rand.Rand
	files []file
	text  []string // current source per file, without the marker comment
	line  []int    // line the marker comment is inserted before
	mark  []int    // marker revision per file; 0 means no marker yet
	revs  int      // marker revisions handed out, so every marker is new
	last  []string // bytes last sent per file
}

func newEditSession(seed int64, files []file) *editSession {
	s := &editSession{
		rng:   rand.New(rand.NewSource(seed ^ 0x5eed)),
		files: files,
		text:  make([]string, len(files)),
		line:  make([]int, len(files)),
		mark:  make([]int, len(files)),
		last:  make([]string, len(files)),
	}
	for i, f := range files {
		s.text[i] = f.source
		s.last[i] = f.source
	}
	return s
}

// initial returns every file as first opened, before any edit.
func (s *editSession) initial() []file { return append([]file(nil), s.files...) }

// next draws the next request: 60% unchanged resubmits, 30% comment (layout)
// edits, 10% literal edits inside one loop body.
func (s *editSession) next() editOp {
	i := s.rng.Intn(len(s.files))
	kind := resubmit
	switch r := s.rng.Intn(10); {
	case r >= 9:
		kind = bodyEdit
	case r >= 6:
		kind = layoutEdit
	}
	switch kind {
	case layoutEdit:
		s.moveMarker(i)
	case bodyEdit:
		// Not every loop body holds a literal: edit the first file, from
		// the drawn one on, that has an editable one. Should none have one,
		// the editor touches layout instead; the logged mix shows it.
		kind = layoutEdit
		for k := 0; k < len(s.files) && kind == layoutEdit; k++ {
			if s.editLiteral((i + k) % len(s.files)) {
				i, kind = (i+k)%len(s.files), bodyEdit
			}
		}
		if kind == layoutEdit {
			s.moveMarker(i)
		}
	}
	f := s.files[i]
	f.source = s.last[i]
	return editOp{kind: kind, file: f}
}

func (s *editSession) moveMarker(i int) {
	s.revs++
	s.mark[i] = s.revs
	s.line[i] = s.rng.Intn(strings.Count(s.text[i], "\n") + 1)
	s.render(i)
}

// render inserts the marker comment into the file's current text.
func (s *editSession) render(i int) {
	if s.mark[i] == 0 {
		s.last[i] = s.text[i]
		return
	}
	lines := strings.SplitAfter(s.text[i], "\n")
	k := s.line[i]
	if k > len(lines) {
		k = len(lines)
	}
	marker := fmt.Sprintf("/* edit %d */\n", s.mark[i])
	s.last[i] = strings.Join(lines[:k], "") + marker + strings.Join(lines[k:], "")
}

// editLiteral increments one decimal literal inside the body of one
// innermost loop whose nest holds no other innermost loop, so exactly that
// loop's LoopID changes and it has to be embedded again. Literals only grow,
// so an edited loop never repeats an earlier text. It reports false when
// the file has no literal whose edit keeps the program compiling.
func (s *editSession) editLiteral(i int) bool {
	src := s.text[i]
	prog, err := lang.Parse(src)
	if err != nil {
		return false
	}
	before := api.LoopIDs(prog)
	hadErrors := sema.Check("", prog).Diags.HasErrors()
	cands := literalSpans(src, prog)
	s.rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
	for _, c := range cands {
		edited := src[:c[0]] + incDecimal(src[c[0]:c[1]]) + src[c[1]:]
		if singleIDChange(edited, before, hadErrors, s.files[i].params) {
			s.text[i] = edited
			s.render(i)
			return true
		}
	}
	return false
}

// singleIDChange reports whether edited still compiles without new semantic
// errors and differs from the original in exactly one LoopID.
func singleIDChange(edited string, before map[string]api.LoopID, hadErrors bool, params map[string]int64) bool {
	prog, err := lang.Parse(edited)
	if err != nil {
		return false
	}
	after := api.LoopIDs(prog)
	if len(after) != len(before) || changedIDs(before, after) != 1 {
		return false
	}
	if !hadErrors && sema.Check("", prog).Diags.HasErrors() {
		return false
	}
	return compiles(edited, params)
}

func changedIDs(before, after map[string]api.LoopID) int {
	n := 0
	for label, id := range before {
		if after[label] != id {
			n++
		}
	}
	return n
}

// literalSpans returns the byte spans of decimal literals (digits with at
// most one '.') inside the bodies of innermost loops that are alone in
// their nest.
func literalSpans(src string, prog *lang.Program) [][2]int {
	perNest := map[*lang.ForStmt]int{}
	infos := extractor.Loops(prog)
	for _, info := range infos {
		perNest[info.Outermost]++
	}
	lineStart := []int{0}
	for j := 0; j < len(src); j++ {
		if src[j] == '\n' {
			lineStart = append(lineStart, j+1)
		}
	}
	var out [][2]int
	for _, info := range infos {
		pos := info.Innermost.Pos
		if perNest[info.Outermost] != 1 || pos.Line < 1 || pos.Line > len(lineStart) {
			continue
		}
		lo, hi, ok := loopBody(src, lineStart[pos.Line-1]+pos.Col-1)
		if ok {
			out = append(out, decimalLiterals(src, lo, hi)...)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// loopBody finds the braces of the body of the for statement starting at
// off: it skips the parenthesized header and returns the span between the
// body's braces.
func loopBody(src string, off int) (lo, hi int, ok bool) {
	open := strings.IndexByte(src[off:], '(')
	if open < 0 {
		return 0, 0, false
	}
	depth := 0
	j := off + open
	for ; j < len(src); j++ {
		if src[j] == '(' {
			depth++
		} else if src[j] == ')' {
			if depth--; depth == 0 {
				break
			}
		}
	}
	j++
	for j < len(src) && (src[j] == ' ' || src[j] == '\t' || src[j] == '\n' || src[j] == '\r') {
		j++
	}
	if j >= len(src) || src[j] != '{' {
		return 0, 0, false
	}
	lo = j + 1
	depth = 0
	for ; j < len(src); j++ {
		if src[j] == '{' {
			depth++
		} else if src[j] == '}' {
			if depth--; depth == 0 {
				return lo, j, true
			}
		}
	}
	return 0, 0, false
}

// decimalLiterals lists the spans of plain decimal literals in src[lo:hi].
func decimalLiterals(src string, lo, hi int) [][2]int {
	var out [][2]int
	for j := lo; j < hi; {
		if !isIdent(src[j]) {
			j++
			continue
		}
		k := j
		for k < hi && (isIdent(src[k]) || src[k] == '.') {
			k++
		}
		if src[j] >= '0' && src[j] <= '9' && isDecimal(src[j:k]) {
			out = append(out, [2]int{j, k})
		}
		j = k
	}
	return out
}

func isIdent(c byte) bool {
	return c == '_' || (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDecimal(tok string) bool {
	dots := 0
	for i := 0; i < len(tok); i++ {
		switch {
		case tok[i] == '.':
			dots++
		case tok[i] < '0' || tok[i] > '9':
			return false
		}
	}
	return dots <= 1 && tok[len(tok)-1] != '.'
}

// incDecimal adds one unit in the last place of a decimal literal, keeping
// the position of the point: "7" -> "8", "0.9" -> "1.0", "99" -> "100".
func incDecimal(tok string) string {
	b := []byte(tok)
	for j := len(b) - 1; j >= 0; j-- {
		switch {
		case b[j] == '.':
			continue
		case b[j] < '9':
			b[j]++
			return string(b)
		default:
			b[j] = '0'
		}
	}
	return "1" + string(b)
}
