package shill

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/examples/scripts"
	"repro/internal/core"
)

// ScriptResolver resolves a required script name to its source text. It
// unifies the two loading mechanisms the reproduction grew separately —
// the in-memory script table and the command-line tools' host-directory
// loader — behind one interface: map, host-dir, and chained
// implementations are provided, and anything satisfying the interface
// plugs into WithScriptResolver or Script.Resolver.
type ScriptResolver interface {
	Load(name string) (string, error)
}

// MapResolver serves scripts from an in-memory table.
type MapResolver map[string]string

// Load implements ScriptResolver.
func (m MapResolver) Load(name string) (string, error) {
	src, ok := m[name]
	if !ok {
		return "", fmt.Errorf("shill: no script %q", name)
	}
	return src, nil
}

// HostDirResolver serves scripts from a directory on the host
// filesystem — what `require "x.cap"` resolves against when running a
// script file with cmd/shill.
type HostDirResolver struct {
	Dir string
}

// Load implements ScriptResolver.
func (h HostDirResolver) Load(name string) (string, error) {
	data, err := os.ReadFile(filepath.Join(h.Dir, name))
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// ChainResolver tries each resolver in order and returns the first hit;
// the last error wins when every link misses.
type ChainResolver []ScriptResolver

// Load implements ScriptResolver.
func (c ChainResolver) Load(name string) (string, error) {
	var err error
	for _, r := range c {
		if r == nil {
			continue
		}
		var src string
		if src, err = r.Load(name); err == nil {
			return src, nil
		}
	}
	if err == nil {
		err = fmt.Errorf("shill: no script %q", name)
	}
	return "", err
}

// builtinResolver serves the machine's added scripts (AddScript) first
// and the shipped set (examples/scripts) second.
type builtinResolver struct {
	sys *core.System
}

// Load implements ScriptResolver.
func (b builtinResolver) Load(name string) (string, error) {
	if src, ok := b.sys.Scripts[name]; ok {
		return src, nil
	}
	if src, ok := scripts.Source(name); ok {
		return src, nil
	}
	return "", fmt.Errorf("lang: no script %q", name)
}

// machineResolver puts the embedder's resolver, if any, before the
// machine's own lookup.
func machineResolver(cfg config, sys *core.System) ScriptResolver {
	if cfg.resolver != nil {
		return ChainResolver{cfg.resolver, builtinResolver{sys}}
	}
	return builtinResolver{sys}
}

// ScriptFiles returns a copy of the shipped scripts (examples/scripts),
// file name to source.
func ScriptFiles() map[string]string { return scripts.All() }

// shippedScript names a shipped script and carries its source, so a
// case study runs the shipped text whatever the machine added.
func shippedScript(name string) Script {
	src, _ := scripts.Source(name)
	return Script{Name: name, Source: src}
}
