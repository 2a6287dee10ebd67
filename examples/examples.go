// Package examples is the scenario catalogue: the spec files under
// scenarios/, embedded so that `ibcbench run -name`, `search -name`,
// `suite` and `help` read the very bytes a user copies and edits. A
// file's stem is its scenario name; `ibcbench suite -lint` keeps the
// two equal and every file in canonical encoding.
package examples

import (
	"embed"
	"io/fs"
	"strings"
)

//go:embed scenarios/*.json
var files embed.FS

// Names lists the catalogue's scenario names (the file stems), sorted.
func Names() []string {
	entries, _ := fs.ReadDir(files, "scenarios") // embedded at build time: cannot fail
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = strings.TrimSuffix(e.Name(), ".json")
	}
	return names
}

// File returns the named scenario's spec file; ok is false when the
// catalogue has no such file.
func File(name string) (data []byte, ok bool) {
	data, err := files.ReadFile("scenarios/" + name + ".json")
	return data, err == nil
}
