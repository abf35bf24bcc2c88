// Package anno parses the //sqpr: source annotations shared by the
// sqpr-vet analyzers. An annotation is a line comment of the form
//
//	//sqpr:<verb> [args...]
//
// attached to a declaration (doc comment), a struct field (doc or trailing
// line comment), or an individual statement (a comment on the same line or
// the line immediately above). DESIGN.md §"Static contracts" documents the
// vocabulary:
//
//	guarded-by <mu>   field is protected by the named mutex (locks)
//	locked <mu> [why] method runs with its receiver's <mu> held (locks)
//	lock-order A < B  sanctioned lock acquisition hierarchy (locks)
//	hotpath           function must not allocate (hotalloc)
//	amortized         pooled append with amortized O(1) growth (hotalloc)
//	noctx <reason>    loop is bounded/terminated without a ctx (ctxflow)
//	ctxloop           loop must demonstrably poll ctx (ctxflow)
//	ctxroot <reason>  deliberate context.Background site (ctxflow)
//	ctxroot-package   whole package is a context root (ctxflow)
//	ack-point         function acknowledges a request (walorder)
//	journal-point     function makes prior mutations durable (walorder)
//	mutates           function/interface method changes journaled state (walorder)
package anno

import (
	"go/ast"
	"go/token"
	"strings"
)

// Prefix introduces an annotation comment.
const Prefix = "//sqpr:"

// Directive is one parsed annotation.
type Directive struct {
	Verb string
	Args string
	Pos  token.Pos
}

// Parse extracts the directive from a single comment, if present.
func Parse(c *ast.Comment) (Directive, bool) {
	rest, ok := strings.CutPrefix(c.Text, Prefix)
	if !ok {
		return Directive{}, false
	}
	verb, args, _ := strings.Cut(rest, " ")
	verb = strings.TrimSpace(verb)
	if verb == "" {
		return Directive{}, false
	}
	return Directive{Verb: verb, Args: strings.TrimSpace(args), Pos: c.Pos()}, true
}

// FromGroup returns the first directive with the given verb in a comment
// group (doc comment), if any.
func FromGroup(cg *ast.CommentGroup, verb string) (Directive, bool) {
	if cg == nil {
		return Directive{}, false
	}
	for _, c := range cg.List {
		if d, ok := Parse(c); ok && d.Verb == verb {
			return d, true
		}
	}
	return Directive{}, false
}

// Lines indexes every directive in a file set of syntax trees by file name
// and line, for statement-level lookups.
type Lines struct {
	byLine map[string]map[int][]Directive
}

// CollectLines builds the line index over the given files.
func CollectLines(fset *token.FileSet, files []*ast.File) *Lines {
	idx := &Lines{byLine: make(map[string]map[int][]Directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := Parse(c)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				m := idx.byLine[pos.Filename]
				if m == nil {
					m = make(map[int][]Directive)
					idx.byLine[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], d)
			}
		}
	}
	return idx
}

// At reports whether a directive with the given verb annotates the source
// position: on its line or on the line immediately above (the two places a
// statement-level annotation may sit).
func (l *Lines) At(fset *token.FileSet, pos token.Pos, verb string) bool {
	p := fset.Position(pos)
	m := l.byLine[p.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, d := range m[line] {
			if d.Verb == verb {
				return true
			}
		}
	}
	return false
}

// PackageHas reports whether any comment in the package carries the verb
// (used for package-scoped markers like ctxroot-package).
func PackageHas(files []*ast.File, verb string) bool {
	for _, f := range files {
		for _, cg := range f.Comments {
			if _, ok := FromGroup(cg, verb); ok {
				return true
			}
		}
	}
	return false
}
