package image

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/vfs"
)

// Config is the machine configuration baked into an image. A restored
// machine boots with these settings unless the caller overrides the
// runtime-only ones (tracing, resolver) at restore time.
type Config struct {
	InstallModule  bool   `json:"installModule"`
	ConsoleLimit   int    `json:"consoleLimit,omitempty"`
	SpawnLatencyNs int64  `json:"spawnLatencyNs,omitempty"`
	AuditDisabled  bool   `json:"auditDisabled,omitempty"`
	Workload       string `json:"workload,omitempty"`
	Origin         bool   `json:"origin,omitempty"`
}

// Meta is everything an image carries beyond filesystem layers.
type Meta struct {
	Config Config
	// Scripts holds the scripts the machine added (AddScript); the
	// shipped set (examples/scripts) is not captured.
	Scripts map[string]string
	// Listeners are the network addresses bound at capture ("80",
	// "10.0.0.1!80", ...). Live sockets cannot be serialized; the
	// restoring machine restarts the services that own them (today:
	// the origin server, via Config.Origin).
	Listeners []string
	// AuditSeq is the audit sequence number at capture; the restored
	// log continues from it so per-machine audit ordering survives.
	AuditSeq uint64
	// Staging is the opaque workload-staging state blob produced by
	// core.(*System).StagingState.
	Staging []byte
}

// Image is an immutable, content-addressed machine snapshot: a stack of
// filesystem layers (bottom to top) plus machine metadata. Images built
// on a common parent share those parent layers, and the flattened view
// used to boot machines is computed once and shared by every restore.
type Image struct {
	id     string
	idOnce sync.Once
	layers []*vfs.Layer
	meta   Meta

	flatOnce  sync.Once
	flat      *vfs.Layer
	flattened atomic.Bool
}

// New assembles an image from a bottom-to-top layer stack and metadata.
// The layers and meta must not be mutated afterwards.
func New(layers []*vfs.Layer, meta Meta) *Image {
	return &Image{layers: layers, meta: meta}
}

// ID returns the image's content address: a hex sha256 over the
// canonical serialization, so two images with identical layers and
// metadata have identical IDs.
func (im *Image) ID() string {
	im.idOnce.Do(func() {
		sum := sha256.Sum256(im.Serialize())
		im.id = hex.EncodeToString(sum[:])
	})
	return im.id
}

// Layers returns the layer stack, bottom to top. Callers must treat it
// as read-only.
func (im *Image) Layers() []*vfs.Layer { return im.layers }

// Meta returns the image metadata. Callers must treat it as read-only.
func (im *Image) Meta() Meta { return im.meta }

// Flatten returns the merged single-layer view of the stack, computing
// it on first use and caching it for every later restore. The second
// return reports whether the cached view was already available — the
// machine layer surfaces it as an image-cache hit.
func (im *Image) Flatten() (*vfs.Layer, bool) {
	hit := im.flattened.Load()
	im.flatOnce.Do(func() {
		im.flat = vfs.FlattenLayers(im.layers)
		im.flattened.Store(true)
	})
	return im.flat, hit
}

// serialization ------------------------------------------------------

const serialFormat = 1

type serialEntry struct {
	Path     string `json:"path"`
	Type     int    `json:"type"`
	Mode     uint16 `json:"mode"`
	UID      int    `json:"uid"`
	GID      int    `json:"gid"`
	Data     []byte `json:"data,omitempty"`
	Whiteout bool   `json:"whiteout,omitempty"`
	Opaque   bool   `json:"opaque,omitempty"`
}

type serialScript struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

type serialImage struct {
	Format    int             `json:"format"`
	Layers    [][]serialEntry `json:"layers"`
	Config    Config          `json:"config"`
	Scripts   []serialScript  `json:"scripts,omitempty"`
	Listeners []string        `json:"listeners,omitempty"`
	AuditSeq  uint64          `json:"auditSeq,omitempty"`
	Staging   []byte          `json:"staging,omitempty"`
}

// Serialize renders the image deterministically: entries sorted by
// path, scripts by name, listeners lexically. Byte-identical images are
// the contract the snapshot→restore→snapshot determinism test holds
// the system to.
func (im *Image) Serialize() []byte {
	s := serialImage{
		Format:   serialFormat,
		Config:   im.meta.Config,
		AuditSeq: im.meta.AuditSeq,
		Staging:  im.meta.Staging,
	}
	for _, l := range im.layers {
		entries := make([]serialEntry, 0, l.Len())
		for _, path := range l.Paths() {
			e := l.Entry(path)
			entries = append(entries, serialEntry{
				Path:     path,
				Type:     int(e.Type),
				Mode:     e.Mode,
				UID:      e.UID,
				GID:      e.GID,
				Data:     e.Data,
				Whiteout: e.Whiteout,
				Opaque:   e.Opaque,
			})
		}
		s.Layers = append(s.Layers, entries)
	}
	for name, src := range im.meta.Scripts {
		s.Scripts = append(s.Scripts, serialScript{Name: name, Source: src})
	}
	sort.Slice(s.Scripts, func(i, j int) bool { return s.Scripts[i].Name < s.Scripts[j].Name })
	s.Listeners = append(s.Listeners, im.meta.Listeners...)
	sort.Strings(s.Listeners)
	out, err := json.Marshal(s)
	if err != nil {
		panic("image: serialize: " + err.Error())
	}
	return out
}

// Deserialize rebuilds an image from Serialize's output.
func Deserialize(data []byte) (*Image, error) {
	var s serialImage
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("image: decode: %w", err)
	}
	if s.Format != serialFormat {
		return nil, fmt.Errorf("image: unsupported format %d", s.Format)
	}
	layers := make([]*vfs.Layer, 0, len(s.Layers))
	for _, entries := range s.Layers {
		lb := vfs.NewLayerBuilder()
		for _, e := range entries {
			lb.Add(e.Path, vfs.LayerEntry{
				Type:     vfs.VnodeType(e.Type),
				Mode:     e.Mode,
				UID:      e.UID,
				GID:      e.GID,
				Data:     e.Data,
				Whiteout: e.Whiteout,
				Opaque:   e.Opaque,
			})
		}
		layers = append(layers, lb.Build())
	}
	meta := Meta{
		Config:    s.Config,
		Listeners: s.Listeners,
		AuditSeq:  s.AuditSeq,
		Staging:   s.Staging,
	}
	if len(s.Scripts) > 0 {
		meta.Scripts = make(map[string]string, len(s.Scripts))
		for _, sc := range s.Scripts {
			meta.Scripts[sc.Name] = sc.Source
		}
	}
	return New(layers, meta), nil
}
