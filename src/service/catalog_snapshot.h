// Copyright 2026 The ConsensusDB Authors
//
// Versioned binary catalog snapshots — the persistence layer that lets a
// restarted serving process (or a newly spawned shard replica) come up warm
// instead of re-parsing and re-folding every tree. A snapshot file holds:
//
//   * a magic + format-version header (unknown version => refuse, never
//     guess — the untangle basetree.h BASETREE_MAGIC discipline);
//   * one record per catalog binding: (name, content fingerprint,
//     structural key, content serialization). The content text is the
//     format's source of truth: ContentFp is definitionally Fnv1a64 over
//     it, and StructKey is Fnv1a64 over the canonical re-orientation of
//     the tree it parses to, so a loaded catalog's identities are
//     byte-identical to a cold catalog's by construction, not by trust in
//     the file (the stored StructKey is verified against the recomputed
//     one — it exists in the file so operators and tools can read the
//     dedup identity without re-canonicalizing);
//   * optional precomputed (StructKey, k) rank-distribution sections —
//     the serving layer's most expensive derived state (the O(L^2 k) fold),
//     persisted so a restarted replica's first Top-k batch hits warm (a
//     save writes each shape's one cache entry; a load seeds each shape's
//     widest record, see ShardedScheduler::InstallSnapshot);
//   * a whole-file FNV-1a checksum.
//
// This is the first input surface the process cannot trust: the bytes come
// from disk, not from our own validated structures. DecodeCatalogSnapshot
// therefore treats the file as adversarial — every length is bounds-checked
// against the remaining payload before use, every embedded tree re-parses
// and re-validates through ParseTree, every fingerprint is recomputed and
// compared, and any failure returns a typed Status without touching any
// catalog (tests/catalog_snapshot_test.cc runs the corruption torture
// matrix under ASan/UBSan).
//
// Format v2 (the version this build writes), all integers little-endian:
//
//   offset 0   8 bytes   magic "CPDBSNAP"
//   offset 8   u32       format version (2)
//   offset 12  u32       reserved (must be 0)
//   offset 16  u64       tree record count
//   offset 24  u64       distribution record count
//   ...        tree records, then distribution records (layouts below)
//   size-8     u64       FNV-1a checksum over bytes [0, size-8)
//
//   tree record:  u32 name length, name bytes, u64 content fingerprint,
//                 u64 structural key, u64 content length, content bytes
//   dist record:  u64 structural key, u32 k, u64 key count, then per key:
//                 i32 key id, then k doubles (raw IEEE-754 bits, little-
//                 endian): Pr(r(key) = i) for i = 1..k. The record's k is
//                 the stored table width, min(k, key count) for a fold
//                 the engine ran: a complete table covers every wider k.
//
// Format v1 (still readable) differs in two ways: tree records carry no
// structural key (it is recomputed on load by canonicalizing the parsed
// tree), and dist records are keyed by content fingerprint. A v1 dist
// record is remapped to its tree's StructKey only when the stored content
// is already in canonical orientation — otherwise it is dropped (still
// fully validated) rather than seeded, because the persisted fold ran over
// an orientation the re-keyed cache will never serve, and a last-bit
// mismatch there would break bitwise determinism.
//
// Records are written in sorted order (trees by name, distributions by
// (StructKey, k)), so encoding is a pure function of the logical content:
// save -> load -> save reproduces the file byte for byte, independent of
// catalog load order or cache LRU history.

#ifndef CPDB_SERVICE_CATALOG_SNAPSHOT_H_
#define CPDB_SERVICE_CATALOG_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "core/rank_distribution.h"
#include "model/and_xor_tree.h"
#include "service/tree_catalog.h"

namespace cpdb {

/// \brief The 8 magic bytes opening every snapshot file.
inline constexpr char kCatalogSnapshotMagic[8] = {'C', 'P', 'D', 'B',
                                                  'S', 'N', 'A', 'P'};

/// \brief The newest format version this build reads and the only one it
/// writes. A file stamped with a larger version is refused outright — a
/// newer format may carry semantics this decoder would silently drop.
/// Version 1 (pre-structural-key) files are still read; see the format
/// notes above for how their records map into the two-level identity.
inline constexpr uint32_t kCatalogSnapshotVersion = 2;

/// \brief One persisted catalog binding. `content` is the wire-visible
/// serialization (what a kLoad of this binding carried); `tree` is its
/// parsed, validated form; `content_fp` is Fnv1a64(content) and
/// `struct_key` hashes the canonical re-orientation (all verified on
/// decode, supplied by the catalog on save).
struct SnapshotTree {
  std::string name;
  ContentFp content_fp;
  StructKey struct_key;
  std::string content;
  std::shared_ptr<const AndXorTree> tree;
};

/// \brief One persisted precomputed rank distribution, keyed exactly like
/// RankDistCache: (structural key, k).
struct SnapshotDistribution {
  StructKey struct_key;
  int k = 0;
  std::shared_ptr<const RankDistribution> dist;
};

/// \brief The decoded (or to-be-encoded) logical content of a snapshot.
struct CatalogSnapshot {
  std::vector<SnapshotTree> trees;
  std::vector<SnapshotDistribution> distributions;
};

/// \brief Serializes a snapshot to the v2 byte format. Deterministic:
/// records are emitted in sorted order (trees by name, distributions by
/// (StructKey, k)) whatever order the vectors hold, so the bytes are a
/// pure function of the logical content. Each distribution record stores
/// the ranks its table holds, min(k, dist->width()); records of one shape
/// at different ks that store the same ranks are written once.
std::string EncodeCatalogSnapshot(const CatalogSnapshot& snapshot);

/// \brief Parses and fully validates `size` bytes of snapshot (v1 or v2).
/// On any defect — truncation, bad magic, unsupported future version,
/// checksum mismatch, counts or lengths overflowing the payload, an
/// embedded tree that fails ParseTree or whose stored text is not the
/// round-trip serialization, a fingerprint that does not hash its bytes, a
/// structural key that does not hash the canonical re-orientation,
/// duplicate or dangling records, non-finite probabilities, trailing
/// garbage — returns a typed Status describing the first defect found.
/// Never aborts, never returns a partially valid snapshot.
Result<CatalogSnapshot> DecodeCatalogSnapshot(const void* data, size_t size);

/// \brief Encodes and writes `snapshot` to `path` (truncating).
Status WriteCatalogSnapshotFile(const std::string& path,
                                const CatalogSnapshot& snapshot);

/// \brief The snapshot load path: reads the whole file into memory, then
/// decodes. A missing or unreadable path is an error (a warm restart must
/// not silently fall back to a cold start).
Result<CatalogSnapshot> ReadCatalogSnapshotFile(const std::string& path);

}  // namespace cpdb

#endif  // CPDB_SERVICE_CATALOG_SNAPSHOT_H_
