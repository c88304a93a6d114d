package lint

import (
	"go/ast"
	"strings"
	"sync"

	"golang.org/x/tools/go/analysis"
)

// allowDirective is the comment prefix of the fdlint escape hatch:
//
//	//fdlint:allow <analyzer> <reason>
//
// The reason is mandatory: an annotation without one never suppresses, so
// every exemption in the tree documents why the invariant does not apply.
const allowDirective = "//fdlint:allow"

// allowNote is one parsed //fdlint:allow annotation.
type allowNote struct {
	analyzer string
	reason   string
}

// allowIndex maps filename -> line -> annotations ending on that line.
type allowIndex map[string]map[int][]allowNote

// allowCache memoizes the per-package annotation index. Keyed by *types.Package
// identity via the Pass, so concurrent passes over different packages are safe.
var allowCache sync.Map // *ast.File slice identity is awkward; key by Pass.Pkg

// parseAllow parses one comment line into an allowNote, or ok=false.
func parseAllow(text string) (allowNote, bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(text), allowDirective)
	if !ok {
		return allowNote{}, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return allowNote{}, false
	}
	return allowNote{
		analyzer: fields[0],
		reason:   strings.Join(fields[1:], " "),
	}, true
}

// indexFor builds (or fetches) the annotation index for the pass's package.
func indexFor(pass *analysis.Pass) allowIndex {
	if v, ok := allowCache.Load(pass.Pkg); ok {
		return v.(allowIndex)
	}
	idx := make(allowIndex)
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				note, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				byLine := idx[p.Filename]
				if byLine == nil {
					byLine = make(map[int][]allowNote)
					idx[p.Filename] = byLine
				}
				byLine[p.Line] = append(byLine[p.Line], note)
			}
		}
	}
	allowCache.Store(pass.Pkg, idx)
	return idx
}

// allowed reports whether an //fdlint:allow annotation for the named analyzer
// (with a non-empty reason) covers node. A struct field is covered by its own
// doc or trailing comment only, never by the trailing comment of the field
// above it; any other node by an annotation on its first line or on the line
// directly above it.
func allowed(pass *analysis.Pass, node ast.Node, analyzer string) bool {
	var notes []allowNote
	if f, ok := node.(*ast.Field); ok {
		for _, g := range []*ast.CommentGroup{f.Doc, f.Comment} {
			if g == nil {
				continue
			}
			for _, c := range g.List {
				if note, ok := parseAllow(c.Text); ok {
					notes = append(notes, note)
				}
			}
		}
	} else {
		p := pass.Fset.Position(node.Pos())
		byLine := indexFor(pass)[p.Filename]
		notes = append(append(notes, byLine[p.Line]...), byLine[p.Line-1]...)
	}
	for _, note := range notes {
		if note.analyzer == analyzer && note.reason != "" {
			return true
		}
	}
	return false
}
