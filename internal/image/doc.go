// Package image defines immutable, content-addressed machine snapshots
// for the SHILL reproduction's serving stack.
//
// An Image is a bottom-to-top stack of copy-on-write filesystem layers
// (internal/vfs.Layer) plus the machine metadata needed to boot a
// session-ready machine from it: configuration, the added scripts, bound
// listener addresses, the audit sequence number, and workload staging
// state. Its identity is a sha256 over the canonical serialization, so
// identical machine states produce identical image IDs and a
// snapshot→restore→snapshot round trip is byte-reproducible.
//
// The design follows container-image layering rather than full memory
// checkpointing:
//
//   - Capturing a machine built from an image appends one layer holding
//     only its divergence (modified files, whiteouts for deletions),
//     sharing every parent layer by reference.
//   - Restoring boots a filesystem whose vnodes materialize lazily from
//     the flattened layer view; file data aliases layer bytes until
//     first write. Many machines share one flattened base, which is
//     computed once per image and cached (the machine layer reports
//     reuse as image-cache hits).
//   - Live kernel state that cannot be serialized — processes, open
//     descriptors, sockets, character devices — is deliberately outside
//     the image. Machines are quiesced before capture, devices are
//     rewired at restore, and recorded services (the origin server) are
//     restarted from their on-image binaries.
//
// The public entry points are shill.(*Machine).Snapshot,
// shill.RestoreMachine, and shill.WithBaseImage; internal/server uses
// them to snapshot evicted tenants and re-admit them warm.
package image
