// Copyright 2026 The ConsensusDB Authors
//
// Torture tests for the catalog snapshot format (service/catalog_snapshot.h).
// Two properties are load-bearing:
//
//   * Corruption rejection: a snapshot file is untrusted input, and every
//     way of mangling one — truncation at *every* byte boundary, a zeroed
//     file, bad magic, a future format version, a flipped payload or
//     checksum byte, record counts that cannot fit the payload, embedded
//     trees that fail ParseTree or are non-canonical, fingerprints that do
//     not hash their bytes, duplicate or dangling records, non-finite
//     probabilities, trailing garbage — must come back as a clean typed
//     Status, never an abort, and never a partially mutated catalog. This
//     suite runs under ASan/UBSan in CI, so an out-of-bounds read in the
//     decoder fails the build, not just the expectation.
//
//   * Round-trip fidelity: save -> load -> save is byte-identical, and
//     loaded trees fingerprint identically to the originals — over
//     hand-written trees and the full random-generator families.

#include "service/catalog_snapshot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "io/table_io.h"
#include "io/tree_text.h"
#include "model/canonical.h"
#include "service/sharded_scheduler.h"
#include "service/tree_catalog.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

constexpr char kTreeText[] =
    "(and (xor 0.6 (leaf key=1 score=8) 0.3 (leaf key=1 score=5))"
    " (xor 0.7 (leaf key=2 score=9))"
    " (xor 0.5 (leaf key=3 score=7) 0.5 (leaf key=3 score=6)))";

constexpr char kOtherTreeText[] =
    "(and (xor 0.5 (leaf key=4 score=3)) (xor 0.25 (leaf key=5 score=1)))";

// Format offsets (see the header-comment layout in catalog_snapshot.h).
constexpr size_t kVersionOffset = 8;
constexpr size_t kReservedOffset = 12;
constexpr size_t kTreeCountOffset = 16;
constexpr size_t kDistCountOffset = 24;

AndXorTree Tree(const std::string& text) {
  auto parsed = ParseTree(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return *std::move(parsed);
}

SnapshotTree MakeTreeRecord(const std::string& name,
                            const std::string& content) {
  SnapshotTree record;
  record.name = name;
  record.content = content;
  record.content_fp = ContentFp(Fnv1a64(content));
  // A correct structural key whenever the bytes parse: corruption tests
  // that target earlier validation stages still need the later fields
  // well-formed, so the stage under test is the one that fires.
  Result<AndXorTree> parsed = ParseTree(content);
  if (parsed.ok()) {
    Result<AndXorTree> canonical = CanonicalizeTree(*parsed);
    if (canonical.ok()) {
      record.struct_key =
          StructKey(Fnv1a64(FormatTree(*canonical, /*indent=*/false)));
    }
  }
  // Encoding never consults `tree`, which is what lets these tests craft
  // records whose bytes a live catalog could not produce.
  return record;
}

SnapshotTree CatalogTreeRecord(const std::string& name,
                               const std::string& text) {
  AndXorTree tree = Tree(text);
  SnapshotTree record =
      MakeTreeRecord(name, FormatTree(tree, /*indent=*/false));
  record.tree = std::make_shared<const AndXorTree>(std::move(tree));
  return record;
}

EngineOptions TestEngineOptions() {
  EngineOptions options;
  options.num_threads = 2;
  return options;
}

ServiceRequest TopKRequest(const std::string& tree, int k) {
  ServiceRequest request;
  request.op = ServiceRequest::Op::kTopK;
  request.tree_name = tree;
  request.k = k;
  return request;
}

// The front end's catalog counts, read through op=stats.
CatalogCounts Counts(ShardedScheduler* scheduler) {
  ServiceRequest stats;
  stats.op = ServiceRequest::Op::kStats;
  return scheduler->ExecuteOne(stats)->catalog;
}

// A populated one-shard service whose snapshot carries both trees and
// (when `with_distributions`) warmed rank-distribution sections.
struct LiveService {
  ShardedScheduler scheduler{1, TestEngineOptions()};

  explicit LiveService(bool with_distributions) {
    EXPECT_TRUE(scheduler.Insert("a", Tree(kTreeText)).ok());
    EXPECT_TRUE(scheduler.Insert("b", Tree(kOtherTreeText)).ok());
    if (with_distributions) {
      EXPECT_TRUE(scheduler.ExecuteOne(TopKRequest("a", 3)).ok());
      EXPECT_TRUE(scheduler.ExecuteOne(TopKRequest("b", 2)).ok());
    }
  }

  CatalogSnapshot Snapshot(bool with_distributions) const {
    return scheduler.BuildSnapshot(with_distributions);
  }
};

std::string ValidBytes(bool with_distributions) {
  return EncodeCatalogSnapshot(
      LiveService(with_distributions).Snapshot(with_distributions));
}

void PokeU32(std::string* bytes, size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[offset + static_cast<size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void PokeU64(std::string* bytes, size_t offset, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[offset + static_cast<size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// Re-stamps a valid checksum over the (possibly corrupted) payload, so a
// test can target validation stages *behind* the checksum: without the
// restamp, every payload edit would be caught as a checksum mismatch and
// the deeper checks would never run.
std::string Restamped(std::string bytes) {
  PokeU64(&bytes, bytes.size() - 8, Fnv1a64(bytes.data(), bytes.size() - 8));
  return bytes;
}

// The full rejection contract for one corrupt byte string: DecodeCatalogSnapshot
// returns the expected typed Status (both from memory and through the file
// load path, which must agree byte-for-byte on the error), and a catalog
// fed through the serve path's decode-then-install sequence is untouched.
void ExpectRejected(const std::string& bytes, StatusCode code,
                    const std::string& needle, const std::string& label) {
  SCOPED_TRACE(label);
  Result<CatalogSnapshot> decoded =
      DecodeCatalogSnapshot(bytes.data(), bytes.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), code) << decoded.status().ToString();
  EXPECT_NE(decoded.status().message().find(needle), std::string::npos)
      << decoded.status().ToString();

  const std::string path = ::testing::TempDir() + "/corrupt.snap";
  ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
  Result<CatalogSnapshot> read = ReadCatalogSnapshotFile(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), code);
  EXPECT_EQ(read.status().message(), decoded.status().message());

  // The serve path decodes before touching any catalog, so a pre-populated
  // catalog and a warm cache survive a corrupt file bit-for-bit.
  ShardedScheduler scheduler(1, TestEngineOptions());
  ASSERT_TRUE(scheduler.Insert("existing", Tree(kTreeText)).ok());
  ASSERT_TRUE(scheduler.ExecuteOne(TopKRequest("existing", 2)).ok());
  const CacheStats before = scheduler.cache_stats();
  Result<CatalogSnapshot> loaded = ReadCatalogSnapshotFile(path);
  if (loaded.ok()) {
    ASSERT_TRUE(scheduler.InstallSnapshot(*loaded).ok());
  }
  EXPECT_EQ(Counts(&scheduler).names, 1);
  EXPECT_EQ(scheduler.cache_stats().entries, before.entries);
  EXPECT_EQ(scheduler.cache_stats().bytes, before.bytes);
}

// ---------------------------------------------------------------------------
// Corruption rejection matrix
// ---------------------------------------------------------------------------

// Every proper prefix of a valid file — including the empty one — is
// rejected. This sweeps the cursor across every field boundary in the
// format, with and without distribution sections.
TEST(CatalogSnapshotCorruptionTest, TruncationAtEveryByteIsRejected) {
  for (bool with_dists : {false, true}) {
    const std::string valid = ValidBytes(with_dists);
    ASSERT_GT(valid.size(), 40u);
    ASSERT_TRUE(
        DecodeCatalogSnapshot(valid.data(), valid.size()).ok());
    for (size_t len = 0; len < valid.size(); ++len) {
      Result<CatalogSnapshot> decoded =
          DecodeCatalogSnapshot(valid.data(), len);
      ASSERT_FALSE(decoded.ok())
          << "accepted a " << len << "-byte prefix (dists=" << with_dists
          << ")";
      // Typed, never a crash: truncation surfaces as ParseError (either
      // "truncated" below the minimum size or a checksum mismatch beyond).
      ASSERT_EQ(decoded.status().code(), StatusCode::kParseError);
    }
  }
}

TEST(CatalogSnapshotCorruptionTest, ZeroLengthAndTinyFilesAreRejected) {
  ExpectRejected("", StatusCode::kParseError, "truncated", "empty");
  ExpectRejected("CPDBSNAP", StatusCode::kParseError, "truncated",
                 "magic only");
  // An empty *file* through the read path reports the same typed error.
  const std::string path = ::testing::TempDir() + "/empty.snap";
  ASSERT_TRUE(WriteStringToFile(path, "").ok());
  Result<CatalogSnapshot> loaded = ReadCatalogSnapshotFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST(CatalogSnapshotCorruptionTest, BadMagicIsRejected) {
  std::string bytes = ValidBytes(false);
  bytes[0] = 'X';
  ExpectRejected(bytes, StatusCode::kParseError, "bad magic", "first byte");
  // Plausible-but-wrong headers (another tool's file) are not snapshots.
  std::string other(ValidBytes(false));
  other.replace(0, 8, "BASETREE");
  ExpectRejected(other, StatusCode::kParseError, "bad magic", "other format");
}

TEST(CatalogSnapshotCorruptionTest, UnsupportedVersionsAreRefusedNotGuessed) {
  for (uint32_t version : {uint32_t{0}, kCatalogSnapshotVersion + 1,
                           uint32_t{0xffffffff}}) {
    std::string bytes = ValidBytes(true);
    PokeU32(&bytes, kVersionOffset, version);
    // Restamped: the version gate itself must fire, not the checksum.
    ExpectRejected(Restamped(std::move(bytes)), StatusCode::kInvalidArgument,
                   "not supported", "version " + std::to_string(version));
  }
}

TEST(CatalogSnapshotCorruptionTest, NonzeroReservedFieldIsRejected) {
  std::string bytes = ValidBytes(false);
  PokeU32(&bytes, kReservedOffset, 7);
  ExpectRejected(Restamped(std::move(bytes)), StatusCode::kParseError,
                 "reserved", "reserved field");
}

TEST(CatalogSnapshotCorruptionTest, AnyFlippedByteFailsTheChecksum) {
  const std::string valid = ValidBytes(true);
  // A sample of positions across header, tree records, distribution
  // records, and the checksum itself (flipping the stored checksum must
  // fail exactly like flipping the payload it vouches for).
  for (size_t offset :
       {kTreeCountOffset, size_t{40}, valid.size() / 2, valid.size() - 20,
        valid.size() - 8, valid.size() - 1}) {
    std::string bytes = valid;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
    ExpectRejected(bytes, StatusCode::kParseError, "checksum mismatch",
                   "flip at " + std::to_string(offset));
  }
}

TEST(CatalogSnapshotCorruptionTest, EntryCountsOverflowingPayloadAreRejected) {
  for (uint64_t count :
       {uint64_t{1000000}, uint64_t{1} << 60, ~uint64_t{0}}) {
    std::string trees = ValidBytes(false);
    PokeU64(&trees, kTreeCountOffset, count);
    ExpectRejected(Restamped(std::move(trees)), StatusCode::kParseError,
                   "cannot fit", "tree count " + std::to_string(count));

    std::string dists = ValidBytes(false);
    PokeU64(&dists, kDistCountOffset, count);
    ExpectRejected(Restamped(std::move(dists)), StatusCode::kParseError,
                   "cannot fit", "dist count " + std::to_string(count));
  }
}

TEST(CatalogSnapshotCorruptionTest, TrailingGarbageIsRejectedEvenRestamped) {
  // Without a restamp the appended bytes shift where the checksum is read
  // from, so the checksum stage catches it...
  std::string naive = ValidBytes(false) + "JUNK";
  ExpectRejected(naive, StatusCode::kParseError, "checksum mismatch",
                 "appended after checksum");
  // ...and an adversary who re-stamps a valid checksum over the garbage is
  // caught by the cursor-must-land-on-the-checksum rule.
  std::string restamped = ValidBytes(false);
  restamped.insert(restamped.size() - 8, "JUNK");
  ExpectRejected(Restamped(std::move(restamped)), StatusCode::kParseError,
                 "trailing garbage", "garbage before checksum");
}

TEST(CatalogSnapshotCorruptionTest, EmbeddedTreeThatFailsParseIsRejected) {
  CatalogSnapshot snapshot;
  snapshot.trees.push_back(MakeTreeRecord("bad", "(and (xor 0.5"));
  // The fingerprint honestly hashes the garbage, so the parse stage — not
  // the fingerprint stage — must be the one that fires.
  ExpectRejected(EncodeCatalogSnapshot(snapshot), StatusCode::kParseError,
                 "does not parse", "unparsable tree");
}

TEST(CatalogSnapshotCorruptionTest, NonCanonicalTreeTextIsRejected) {
  // kTreeText parses fine but is the *indented-author* form; the canonical
  // form is FormatTree's single line. Accepting it would let a
  // hand-crafted snapshot plant a (fingerprint, canonical) pair that
  // disagrees with what TreeCatalog::IdentityWithContent requires.
  AndXorTree tree = Tree(kTreeText);
  const std::string canonical = FormatTree(tree, /*indent=*/false);
  const std::string indented = FormatTree(tree, /*indent=*/true);
  ASSERT_NE(canonical, indented);
  CatalogSnapshot snapshot;
  snapshot.trees.push_back(MakeTreeRecord("t", indented));
  ExpectRejected(EncodeCatalogSnapshot(snapshot), StatusCode::kParseError,
                 "canonical form", "indented serialization");
}

TEST(CatalogSnapshotCorruptionTest, FingerprintNotHashingItsBytesIsRejected) {
  CatalogSnapshot snapshot;
  snapshot.trees.push_back(CatalogTreeRecord("t", kTreeText));
  snapshot.trees[0].content_fp =
      ContentFp(snapshot.trees[0].content_fp.value() ^ 1);
  ExpectRejected(EncodeCatalogSnapshot(snapshot), StatusCode::kParseError,
                 "does not hash", "flipped fingerprint");
}

TEST(CatalogSnapshotCorruptionTest, ForgedStructuralKeyIsRejected) {
  // A v2 record whose stored structural key is not the hash of the
  // canonical re-orientation: accepting it would route the binding to the
  // wrong shard and the wrong cache lines, so the decoder recomputes and
  // compares.
  CatalogSnapshot snapshot;
  snapshot.trees.push_back(CatalogTreeRecord("t", kTreeText));
  snapshot.trees[0].struct_key =
      StructKey(snapshot.trees[0].struct_key.value() ^ 1);
  ExpectRejected(EncodeCatalogSnapshot(snapshot), StatusCode::kParseError,
                 "structural key", "flipped structural key");
}

TEST(CatalogSnapshotCorruptionTest, DuplicateAndEmptyNamesAreRejected) {
  CatalogSnapshot duplicate;
  duplicate.trees.push_back(CatalogTreeRecord("t", kTreeText));
  duplicate.trees.push_back(CatalogTreeRecord("t", kOtherTreeText));
  ExpectRejected(EncodeCatalogSnapshot(duplicate), StatusCode::kParseError,
                 "duplicate catalog name", "duplicate name");

  CatalogSnapshot empty;
  empty.trees.push_back(CatalogTreeRecord("", kTreeText));
  ExpectRejected(EncodeCatalogSnapshot(empty), StatusCode::kParseError,
                 "must not be empty", "empty name");
}

TEST(CatalogSnapshotCorruptionTest, DistributionRecordDefectsAreRejected) {
  LiveService live(/*with_distributions=*/true);
  CatalogSnapshot valid = live.Snapshot(true);
  ASSERT_FALSE(valid.distributions.empty());

  // Dangling: a distribution whose fingerprint no tree record carries.
  CatalogSnapshot dangling = valid;
  dangling.distributions[0].struct_key =
      StructKey(dangling.distributions[0].struct_key.value() ^ 1);
  ExpectRejected(EncodeCatalogSnapshot(dangling), StatusCode::kParseError,
                 "no tree record", "dangling structural key");

  // Duplicate (fingerprint, k).
  CatalogSnapshot duplicate = valid;
  duplicate.distributions.push_back(duplicate.distributions[0]);
  ExpectRejected(EncodeCatalogSnapshot(duplicate), StatusCode::kParseError,
                 "duplicate (structural key, k)", "duplicate dist");

  // Non-finite and out-of-range probabilities.
  for (double bad : {std::nan(""), 2.0, -0.5}) {
    RankDistributionBuilder builder(2);
    for (KeyId key : valid.trees[0].tree->Keys()) {
      builder.EnsureKey(key);
      builder.Add(key, 1, bad);
    }
    CatalogSnapshot poisoned;
    poisoned.trees.push_back(valid.trees[0]);
    SnapshotDistribution dist;
    dist.struct_key = valid.trees[0].struct_key;
    dist.k = 2;
    dist.dist = std::make_shared<const RankDistribution>(
        std::move(builder).Build());
    poisoned.distributions.push_back(std::move(dist));
    ExpectRejected(EncodeCatalogSnapshot(poisoned), StatusCode::kParseError,
                   "not a probability", "bad probability");
  }

  // A distribution whose key set disagrees with its tree's keys.
  RankDistributionBuilder builder(2);
  builder.EnsureKey(999);
  CatalogSnapshot mismatched;
  mismatched.trees.push_back(valid.trees[0]);
  SnapshotDistribution wrong_keys;
  wrong_keys.struct_key = valid.trees[0].struct_key;
  wrong_keys.k = 2;
  wrong_keys.dist =
      std::make_shared<const RankDistribution>(std::move(builder).Build());
  mismatched.distributions.push_back(std::move(wrong_keys));
  ExpectRejected(EncodeCatalogSnapshot(mismatched), StatusCode::kParseError,
                 "do not match", "key set mismatch");

  // k = 0 (a builder can produce it; the format must not accept it).
  RankDistributionBuilder zero_k(0);
  CatalogSnapshot zero;
  zero.trees.push_back(valid.trees[0]);
  SnapshotDistribution zero_dist;
  zero_dist.struct_key = valid.trees[0].struct_key;
  zero_dist.k = 0;
  zero_dist.dist =
      std::make_shared<const RankDistribution>(std::move(zero_k).Build());
  zero.distributions.push_back(std::move(zero_dist));
  ExpectRejected(EncodeCatalogSnapshot(zero), StatusCode::kParseError,
                 "out of range", "k=0");
}

// The encoder compares each record with its predecessor in (shape, k)
// order. On a 3-key shape, (s, 3), (s, 5) store the same 3 ranks, so the
// (s, 5) record is dropped; a further (s, 5) repeats its predecessor and is
// written, at the stored width 3, for the decoder to reject as a duplicate.
TEST(CatalogSnapshotCorruptionTest, SameWidthRecordsCollapseAndRepeatsReject) {
  LiveService live(/*with_distributions=*/true);
  const CatalogSnapshot valid = live.Snapshot(true);
  CatalogSnapshot base;
  base.trees = valid.trees;
  for (const SnapshotDistribution& d : valid.distributions) {
    if (d.dist->keys().size() == 3) base.distributions.push_back(d);
  }
  ASSERT_EQ(base.distributions.size(), 1u);
  const SnapshotDistribution narrow = base.distributions[0];
  ASSERT_EQ(narrow.k, 3);
  ASSERT_EQ(narrow.dist->width(), 3);
  SnapshotDistribution wide = narrow;
  wide.k = 5;
  wide.dist = std::make_shared<const RankDistribution>(narrow.dist->At(5));
  ASSERT_EQ(wide.dist->k(), 5);

  CatalogSnapshot collapsed = base;
  collapsed.distributions.push_back(wide);
  EXPECT_EQ(EncodeCatalogSnapshot(collapsed), EncodeCatalogSnapshot(base));

  CatalogSnapshot repeated = collapsed;
  repeated.distributions.push_back(wide);
  ExpectRejected(EncodeCatalogSnapshot(repeated), StatusCode::kParseError,
                 "duplicate (structural key, k)", "repeated wide record");
}

// A missing path is an error, not an empty snapshot — the warm-restart
// contract (a restart that silently comes up cold would hide the defect
// until traffic notices the latency).
TEST(CatalogSnapshotCorruptionTest, MissingFileIsATypedError) {
  const std::string path = ::testing::TempDir() + "/does_not_exist.snap";
  Result<CatalogSnapshot> loaded = ReadCatalogSnapshotFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Round-trip fidelity
// ---------------------------------------------------------------------------

TEST(CatalogSnapshotRoundTripTest, EmptySnapshotRoundTrips) {
  const std::string bytes = EncodeCatalogSnapshot(CatalogSnapshot{});
  EXPECT_EQ(bytes.size(), 40u);  // header + checksum, nothing else
  Result<CatalogSnapshot> decoded =
      DecodeCatalogSnapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->trees.empty());
  EXPECT_TRUE(decoded->distributions.empty());
  EXPECT_EQ(EncodeCatalogSnapshot(*decoded), bytes);
}

TEST(CatalogSnapshotRoundTripTest, EncodingIsIndependentOfRecordOrder) {
  CatalogSnapshot forward;
  forward.trees.push_back(CatalogTreeRecord("a", kTreeText));
  forward.trees.push_back(CatalogTreeRecord("b", kOtherTreeText));
  CatalogSnapshot reversed;
  reversed.trees.push_back(CatalogTreeRecord("b", kOtherTreeText));
  reversed.trees.push_back(CatalogTreeRecord("a", kTreeText));
  EXPECT_EQ(EncodeCatalogSnapshot(forward), EncodeCatalogSnapshot(reversed));
}

// The core property, over every generator family: save -> load -> save is
// byte-identical, fingerprints are preserved, and installing the loaded
// snapshot reproduces the catalog exactly.
TEST(CatalogSnapshotRoundTripTest, GeneratedTreesSurviveSaveLoadSave) {
  for (uint64_t seed : {3u, 17u, 71u, 204u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    RandomTreeOptions opts;
    opts.num_keys = 10;
    opts.max_depth = 3;

    ShardedScheduler scheduler(1, TestEngineOptions());
    auto insert = [&](const std::string& name, Result<AndXorTree> tree) {
      ASSERT_TRUE(tree.ok()) << tree.status().ToString();
      ASSERT_TRUE(scheduler.Insert(name, *std::move(tree)).ok());
    };
    insert("deep", RandomAndXorTree(opts, &rng));
    insert("bid", RandomBid(opts, &rng));
    insert("ti", RandomTupleIndependent(8, &rng));
    insert("fixed", Tree(kTreeText));
    // Warm the cache so the snapshot carries distribution sections too.
    for (const char* name : {"deep", "bid", "ti", "fixed"}) {
      ASSERT_TRUE(scheduler.ExecuteOne(TopKRequest(name, 3)).ok());
    }

    const CatalogSnapshot original =
        scheduler.BuildSnapshot(/*include_distributions=*/true);
    ASSERT_EQ(original.trees.size(), 4u);
    ASSERT_EQ(original.distributions.size(), 4u);
    const std::string bytes = EncodeCatalogSnapshot(original);

    // load -> save: byte identity, from memory and through the file.
    Result<CatalogSnapshot> decoded =
        DecodeCatalogSnapshot(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(EncodeCatalogSnapshot(*decoded), bytes);

    const std::string path = ::testing::TempDir() + "/roundtrip.snap";
    ASSERT_TRUE(WriteCatalogSnapshotFile(path, original).ok());
    Result<CatalogSnapshot> read = ReadCatalogSnapshotFile(path);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(EncodeCatalogSnapshot(*read), bytes);

    // Every loaded tree re-fingerprints to the original value — the loaded
    // catalog's identity map is the cold catalog's by construction.
    for (size_t i = 0; i < decoded->trees.size(); ++i) {
      EXPECT_EQ(decoded->trees[i].content_fp,
                TreeCatalog::FingerprintTree(*decoded->trees[i].tree));
      EXPECT_EQ(decoded->trees[i].content_fp, original.trees[i].content_fp);
      EXPECT_EQ(decoded->trees[i].struct_key, original.trees[i].struct_key);
      EXPECT_EQ(decoded->trees[i].name, original.trees[i].name);
    }

    // Installing into a fresh service reproduces the state: same entries,
    // and a snapshot saved from the restored service is the same file
    // again (save -> load -> install -> save, still identical).
    ShardedScheduler restored(1, TestEngineOptions());
    ASSERT_TRUE(restored.InstallSnapshot(*decoded).ok());
    EXPECT_EQ(Counts(&restored).names, Counts(&scheduler).names);
    EXPECT_EQ(EncodeCatalogSnapshot(
                  restored.BuildSnapshot(/*include_distributions=*/true)),
              bytes);
  }
}

// Install takes the routed insert every load takes, so its conflict
// semantics are the catalog's own: identical content re-installs
// idempotently; a name bound to different content fails with
// AlreadyExists.
TEST(CatalogSnapshotRoundTripTest, InstallSemanticsMatchLineByLineLoads) {
  LiveService live(/*with_distributions=*/false);
  const CatalogSnapshot snapshot = live.Snapshot(false);

  // Idempotent onto itself.
  EXPECT_TRUE(live.scheduler.InstallSnapshot(snapshot).ok());
  EXPECT_EQ(Counts(&live.scheduler).names, 2);

  // Rebind conflict: the same error Insert reports, byte for byte.
  ShardedScheduler conflicted(1, TestEngineOptions());
  ASSERT_TRUE(conflicted.Insert("a", Tree(kOtherTreeText)).ok());
  Status install = conflicted.InstallSnapshot(snapshot);
  Result<CatalogEntry> direct = conflicted.Insert("a", Tree(kTreeText));
  ASSERT_FALSE(install.ok());
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(install.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(install.message(), direct.status().message());
}

// An in-memory snapshot — BuildSnapshot handed straight to InstallSnapshot,
// no encode/decode in between — carries each tree in its canonical
// orientation. Install must still bind every name under the record's own
// content bytes and fingerprint: re-loading the original non-canonical
// content is then idempotent, and op=load echoes the original fingerprint.
TEST(CatalogSnapshotRoundTripTest, InMemoryInstallKeepsTheWireIdentity) {
  const AndXorTree ab = Tree(
      "(and (xor 0.6 (leaf key=1 score=8) 0.3 (leaf key=1 score=5))"
      " (xor 0.7 (leaf key=2 score=9)))");
  const AndXorTree ba = Tree(
      "(and (xor 0.7 (leaf key=2 score=9))"
      " (xor 0.6 (leaf key=1 score=8) 0.3 (leaf key=1 score=5)))");
  const std::string canon_text =
      FormatTree(*CanonicalizeTree(ab), /*indent=*/false);
  const AndXorTree& permuted =
      FormatTree(ab, /*indent=*/false) == canon_text ? ba : ab;
  ASSERT_NE(FormatTree(permuted, /*indent=*/false), canon_text);
  const std::string path = ::testing::TempDir() + "/permuted.sexp";
  ASSERT_TRUE(
      WriteStringToFile(path, FormatTree(permuted, /*indent=*/false)).ok());
  ServiceRequest load;
  load.op = ServiceRequest::Op::kLoad;
  load.load_name = "t";
  load.load_file = path;

  for (int shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedScheduler source(shards, TestEngineOptions());
    Result<CatalogEntry> original = source.Insert("t", permuted);
    ASSERT_TRUE(original.ok()) << original.status().ToString();
    const CatalogSnapshot snapshot =
        source.BuildSnapshot(/*include_distributions=*/false);

    ShardedScheduler restored(shards, TestEngineOptions());
    ASSERT_TRUE(restored.InstallSnapshot(snapshot).ok());
    Result<CatalogEntry> reloaded = restored.Insert("t", permuted);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    EXPECT_EQ(reloaded->content_fp, original->content_fp);
    Result<ServiceResponse> echoed = restored.ExecuteOne(load);
    ASSERT_TRUE(echoed.ok()) << echoed.status().ToString();
    EXPECT_EQ(echoed->fingerprint, original->content_fp);
    // The restored service saves the snapshot it was given.
    EXPECT_EQ(EncodeCatalogSnapshot(
                  restored.BuildSnapshot(/*include_distributions=*/false)),
              EncodeCatalogSnapshot(snapshot));
  }
}

// Seeded distributions are bitwise the ones the engine would compute: a
// warm cache probe returns a distribution whose every (key, i) probability
// equals a fresh engine fold's.
TEST(CatalogSnapshotRoundTripTest, LoadedDistributionsAreBitwiseExact) {
  LiveService live(/*with_distributions=*/true);
  const std::string bytes = EncodeCatalogSnapshot(live.Snapshot(true));
  Result<CatalogSnapshot> decoded =
      DecodeCatalogSnapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->distributions.size(), 2u);
  for (const SnapshotDistribution& dist : decoded->distributions) {
    std::shared_ptr<const RankDistribution> retained;
    for (const SnapshotDistribution& entry :
         live.Snapshot(true).distributions) {
      if (entry.struct_key == dist.struct_key && entry.k == dist.k) {
        retained = entry.dist;
      }
    }
    ASSERT_NE(retained, nullptr);
    ASSERT_EQ(dist.dist->keys(), retained->keys());
    ASSERT_EQ(dist.dist->k(), retained->k());
    for (KeyId key : retained->keys()) {
      for (int i = 1; i <= retained->k(); ++i) {
        // Bitwise: EXPECT_EQ on doubles, never NEAR.
        EXPECT_EQ(dist.dist->PrRankEq(key, i), retained->PrRankEq(key, i));
        EXPECT_EQ(dist.dist->PrRankLe(key, i), retained->PrRankLe(key, i));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// v1 compatibility
// ---------------------------------------------------------------------------

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  AppendU32(out, static_cast<uint32_t>(v & 0xffffffffULL));
  AppendU32(out, static_cast<uint32_t>(v >> 32));
}

// Encodes the pre-structural-key v1 layout: tree records carry no struct
// key, and distribution records are addressed by content fingerprint.
std::string EncodeV1Snapshot(
    const std::vector<std::pair<std::string, std::string>>& trees,
    const std::vector<std::pair<std::string, const RankDistribution*>>&
        dists_by_text,
    int k) {
  std::string out;
  out.append(kCatalogSnapshotMagic, sizeof(kCatalogSnapshotMagic));
  AppendU32(&out, 1);  // version
  AppendU32(&out, 0);  // reserved
  AppendU64(&out, trees.size());
  AppendU64(&out, dists_by_text.size());
  for (const auto& [name, text] : trees) {
    AppendU32(&out, static_cast<uint32_t>(name.size()));
    out.append(name);
    AppendU64(&out, Fnv1a64(text));
    AppendU64(&out, text.size());
    out.append(text);
  }
  for (const auto& [text, dist] : dists_by_text) {
    AppendU64(&out, Fnv1a64(text));
    AppendU32(&out, static_cast<uint32_t>(k));
    AppendU64(&out, dist->keys().size());
    for (KeyId key : dist->keys()) {
      AppendU32(&out, static_cast<uint32_t>(key));
      for (int i = 1; i <= k; ++i) {
        double pr = dist->PrRankEq(key, i);
        uint64_t bits = 0;
        std::memcpy(&bits, &pr, sizeof(bits));
        AppendU64(&out, bits);
      }
    }
  }
  AppendU64(&out, Fnv1a64(out.data(), out.size()));
  return out;
}

// A v1 file loads through the same decode + install seam, with
// structural keys recomputed from the stored content. Distributions keyed
// by content fingerprint remap to their tree's StructKey only when the
// stored orientation is already canonical; a non-canonical orientation's
// fold is dropped, because the re-keyed cache serves only canonical-
// orientation folds.
TEST(CatalogSnapshotV1CompatTest, V1FilesLoadWithRecomputedKeys) {
  // Two orientations of one shape: exactly one is the canonical one.
  AndXorTree ab = Tree(
      "(and (xor 0.6 (leaf key=1 score=8) 0.3 (leaf key=1 score=5))"
      " (xor 0.7 (leaf key=2 score=9)))");
  AndXorTree ba = Tree(
      "(and (xor 0.7 (leaf key=2 score=9))"
      " (xor 0.6 (leaf key=1 score=8) 0.3 (leaf key=1 score=5)))");
  const std::string ab_text = FormatTree(ab, /*indent=*/false);
  const std::string ba_text = FormatTree(ba, /*indent=*/false);
  ASSERT_NE(ab_text, ba_text);
  const std::string canon_text =
      FormatTree(*CanonicalizeTree(ab), /*indent=*/false);
  ASSERT_EQ(canon_text, FormatTree(*CanonicalizeTree(ba), /*indent=*/false));
  const std::string other_text = ab_text == canon_text ? ba_text : ab_text;
  const StructKey shape_key(Fnv1a64(canon_text));

  Engine dist_engine(TestEngineOptions());
  const RankDistribution canon_dist =
      dist_engine.ComputeRankDistribution(Tree(canon_text), 2);
  const RankDistribution other_dist =
      dist_engine.ComputeRankDistribution(Tree(other_text), 2);
  const std::string bytes = EncodeV1Snapshot(
      {{"canon", canon_text}, {"perm", other_text}},
      {{canon_text, &canon_dist}, {other_text, &other_dist}}, /*k=*/2);

  Result<CatalogSnapshot> decoded =
      DecodeCatalogSnapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->trees.size(), 2u);
  for (const SnapshotTree& record : decoded->trees) {
    // Content identity is preserved verbatim; the structural key is
    // recomputed, and both orientations collapse to one shape.
    EXPECT_EQ(record.content_fp, ContentFp(Fnv1a64(record.content)));
    EXPECT_EQ(record.struct_key, shape_key);
  }
  // Only the canonical orientation's fold survives the re-keying.
  ASSERT_EQ(decoded->distributions.size(), 1u);
  EXPECT_EQ(decoded->distributions[0].struct_key, shape_key);
  EXPECT_EQ(decoded->distributions[0].k, 2);

  // Installing lands both names on one shared shape, with the persisted
  // fold pre-seeded for it.
  ShardedScheduler scheduler(1, TestEngineOptions());
  ASSERT_TRUE(scheduler.InstallSnapshot(*decoded).ok());
  const CatalogCounts counts = Counts(&scheduler);
  EXPECT_EQ(counts.names, 2);
  EXPECT_EQ(counts.contents, 2);
  EXPECT_EQ(counts.shapes, 1);
  EXPECT_EQ(scheduler.cache_stats().entries, 1);

  // Re-saving writes the current version; the upgraded file round-trips
  // byte-identically from then on.
  const std::string upgraded = EncodeCatalogSnapshot(
      scheduler.BuildSnapshot(/*include_distributions=*/true));
  Result<CatalogSnapshot> reloaded =
      DecodeCatalogSnapshot(upgraded.data(), upgraded.size());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(EncodeCatalogSnapshot(*reloaded), upgraded);
}

// v1 files get the same adversarial treatment as v2: a fingerprint that
// does not hash its bytes, or a dangling distribution, is rejected with
// the same typed errors.
TEST(CatalogSnapshotV1CompatTest, CorruptV1FilesAreRejected) {
  AndXorTree tree = Tree(kTreeText);
  const std::string text = FormatTree(tree, /*indent=*/false);
  Engine dist_engine(TestEngineOptions());
  const RankDistribution dist = dist_engine.ComputeRankDistribution(tree, 2);

  std::string forged_fp =
      EncodeV1Snapshot({{"t", text}}, {}, /*k=*/2);
  // Flip a fingerprint bit (offset: header 32 + u32 name len 4 + name).
  const size_t fp_offset = 32 + 4 + 1;
  forged_fp[fp_offset] = static_cast<char>(forged_fp[fp_offset] ^ 1);
  ExpectRejected(Restamped(std::move(forged_fp)), StatusCode::kParseError,
                 "does not hash", "v1 forged fingerprint");

  const std::string missing_tree =
      EncodeV1Snapshot({}, {{text, &dist}}, /*k=*/2);
  ExpectRejected(missing_tree, StatusCode::kParseError, "no tree record",
                 "v1 dangling fingerprint");
}

}  // namespace
}  // namespace cpdb
