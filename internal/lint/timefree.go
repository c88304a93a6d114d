package lint

import (
	"path/filepath"
	"strconv"

	"golang.org/x/tools/go/analysis"
)

// TimeFree keeps the paper's detector rule free of time: the files of
// internal/core other than qrnode.go, its round runtime, and all of
// internal/core/tagset import neither time nor internal/node. The rule is
// then an automaton over send, receive and crash events only, the reading
// of an asynchronous failure detector this reproduction checks it against;
// only the runtime may arm the deadlines that pace its rounds.
var TimeFree = &analysis.Analyzer{
	Name: timeFreeName,
	Doc:  "flags imports of time or internal/node in the detector rule (internal/core but qrnode.go, internal/core/tagset)",
	Run:  runTimeFree,
}

func runTimeFree(pass *analysis.Pass) (any, error) {
	path := pass.Pkg.Path()
	core := path == "asyncfd/internal/core"
	if !core && !underTree(path, "asyncfd/internal/core/tagset") {
		return nil, nil
	}
	for _, f := range pass.Files {
		if core && filepath.Base(pass.Fset.Position(f.Pos()).Filename) == "qrnode.go" {
			continue
		}
		for _, spec := range f.Imports {
			// time and node are the ways a clock or a timer reaches the rule.
			imp, _ := strconv.Unquote(spec.Path.Value)
			if imp != "time" && imp != "asyncfd/internal/node" || allowed(pass, spec, timeFreeName) {
				continue
			}
			pass.Reportf(spec.Pos(),
				"%s imports %s: the detector rule reads no clock and arms no timer, only the round runtime in qrnode.go does (or annotate //fdlint:allow timefree <reason>)",
				path, imp)
		}
	}
	return nil, nil
}
