// Package scripts holds the shipped SHILL scripts: the paper's Figures
// 3–6, the §4.1 case studies and the why-denied demo. The files in this
// directory are their only copy. cmd/shill reads them from disk; every
// machine resolves `require` and shilld's scriptName against this
// embedded set after the scripts its tenant added.
package scripts

import (
	"embed"
	"maps"
)

//go:embed *.cap *.ambient *.sh
var files embed.FS

// shipped maps file name to source. It is read once per process and
// never written after; reading an embedded directory cannot fail.
var shipped = func() map[string]string {
	entries, _ := files.ReadDir(".")
	m := make(map[string]string, len(entries))
	for _, e := range entries {
		data, _ := files.ReadFile(e.Name())
		m[e.Name()] = string(data)
	}
	return m
}()

// Source returns the shipped script called name.
func Source(name string) (string, bool) {
	src, ok := shipped[name]
	return src, ok
}

// All returns a copy of the shipped set, file name to source.
func All() map[string]string { return maps.Clone(shipped) }
