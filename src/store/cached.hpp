// Cached spine products: the artifact store wired into the consumers.
//
// Everything expensive on the ForestView spine is a pure function of
// (inputs, params): the normalized compendium rows + missing bitmasks live
// in a SimilarityEngine, condensed distance triangles feed agglomeration,
// LSH signature banks feed approximate top-k, SPELL dot banks feed query
// scoring, and the serve layer's response bytes are blobs. This header
// gives each of them a content-hash key, a codec (byte-exact save/load of
// the computed state), and an open_or_* entry point built on
// store::load_or_compute — the one degradation ladder: warm when a valid
// artifact exists, recompute + self-heal otherwise, never wrong data.
// Finished analysis results (neighbor tables, merge lists) are not typed
// artifacts: the serve layer persists their response bytes as blobs.
//
// Each codec has exactly one decode path, chosen by its result type:
//  * engine, LSH and SPELL codecs BORROW — the restored object's state
//    arrays are read-only spans into the artifact mapping, pinned for the
//    object's lifetime (sim::EngineStorage::kBorrowedMapped). Their
//    artifact kinds open kOnDemand (load_or_compute picks residency from
//    the kind), so a warm open faults in only what a query later touches;
//  * the distance codec and the blob COPY OUT into a plain vector or
//    string, and their kinds open kPrefault.
// Either way a warm open restores BIT-IDENTICAL state (no re-derivation,
// no text round-trip), so a warm consumer is indistinguishable from a cold
// one — tests assert exact equality, not tolerance.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "cluster/distance.hpp"
#include "expr/dataset.hpp"
#include "par/thread_pool.hpp"
#include "sim/lsh.hpp"
#include "sim/similarity_engine.hpp"
#include "spell/spell.hpp"
#include "store/artifact_store.hpp"

namespace fv::store {

// ---- content-hash keys -------------------------------------------------

/// Key of a matrix's raw content: dimensions + every cell byte (NaN
/// patterns included — a missing cell is content).
ArtifactKey matrix_key(const expr::ExpressionMatrix& matrix);

/// Key of an on-disk compendium: every regular file in `directory`, sorted
/// by name, hashed as (name, bytes). This is how a warm session keys the
/// engine artifact WITHOUT parsing a single PCL line — byte-hashing the
/// files is I/O-bound, parsing them is not.
ArtifactKey compendium_files_key(const std::string& directory);

/// Engine key: input content + the build parameters that change the state.
ArtifactKey engine_key(ArtifactKey input_key, sim::Metric metric,
                       sim::Precompute precompute, sim::DenseKernel kernel);

ArtifactKey lsh_key(ArtifactKey engine_content, const sim::LshParams& params);

// ---- codecs ------------------------------------------------------------
//
// Each codec appends a fixed number of sections to an ArtifactWriter and
// reads them back from an ArtifactReader at a caller-tracked section
// cursor (so codecs nest: SpellCodec stores one engine bank after
// another). The friend declarations in sim/ and spell/ let them move
// private state without widening any public API. Borrowing loads take the
// reader shared: the result pins it, so the mapping outlives every span.
// Open such a reader with PageResidency::kOnDemand, or the mapping arrives
// fully faulted and the point of borrowing is lost.

class EngineCodec {
 public:

  /// Self-contained content key of a BUILT engine: input content (filled
  /// rows + missing masks + dims) and build params, independent of where
  /// the input came from. Derived artifacts (distances, LSH) chain from
  /// this, so they never need the original files.
  static ArtifactKey content_key(const sim::SimilarityEngine& engine);

  static void save(ArtifactWriter& writer,
                   const sim::SimilarityEngine& engine);
  /// Zero-copy restore: the returned engine's state arrays are read-only
  /// spans into `reader`'s mapping (EngineStorage::kBorrowedMapped), and
  /// the engine pins the reader. Bit-identical to the saved engine in
  /// every query.
  static sim::SimilarityEngine load(
      std::shared_ptr<const ArtifactReader> reader, std::size_t& section);
};

class LshCodec {
 public:
  static void save(ArtifactWriter& writer, const sim::LshIndex& index);
  /// Zero-copy restore of a signature index: the bank and each bucket
  /// table's per-table slice of the flat key/row sections are borrowed
  /// from `reader`'s mapping, which the index pins. Candidate generation
  /// is identical to a freshly built index.
  static sim::LshIndex load(std::shared_ptr<const ArtifactReader> reader,
                            std::size_t& section);
};

class SpellCodec {
 public:
  static ArtifactKey content_key(const std::vector<expr::Dataset>& datasets);
  static void save(ArtifactWriter& writer, const spell::SpellSearch& search);
  /// `datasets` must be the same compendium the persisted search was built
  /// over (the key guarantees it when the caller goes through
  /// open_or_build_spell); the restored search references it. Every dot
  /// bank is an EngineCodec::load, so the banks are borrowed too.
  static spell::SpellSearch load(std::shared_ptr<const ArtifactReader> reader,
                                 const std::vector<expr::Dataset>& datasets);
};

/// DistanceMatrix is a public-state type; its codec needs no friends but
/// follows the same section discipline. It copies out (the result is a
/// plain vector), so it takes the reader by reference and its open_or_*
/// call prefaults.
class DistanceCodec {
 public:
  static void save(ArtifactWriter& writer,
                   const cluster::DistanceMatrix& distances);
  static cluster::DistanceMatrix load(const ArtifactReader& reader,
                                      std::size_t& section);
};

// ---- cached consumers --------------------------------------------------
//
// Every open_or_* call lands in exactly one of two states:
//  * warm — a valid artifact was mapped and decoded (milliseconds);
//  * cold — computed from inputs (bit-identical to a storeless build),
//    then persisted best-effort.
// Damaged artifacts are quarantined/removed on the way (see
// load_or_compute); `stats` reports which path ran.

/// The engine over a compendium/matrix, keyed by `input_key` (use
/// matrix_key or compendium_files_key). `load_matrix` is only invoked on
/// the cold path — a warm open never parses input files. The engine is
/// served borrowed-mapped on every path where a trustworthy artifact
/// exists: warm opens borrow, and a cold build that commits is reopened
/// from the committed artifact. It is the heap build only when persisting
/// or that reopen failed (degradation, never an error). Borrowed, pages
/// fault in as the tile schedule touches them and the serial streaming
/// driver releases them behind its cursor, so the distance phase runs at
/// n whose dense engine state exceeds RAM.
sim::SimilarityEngine open_or_build_engine(
    ArtifactStore& store, ArtifactKey input_key,
    const std::function<expr::ExpressionMatrix()>& load_matrix,
    sim::Metric metric,
    sim::Precompute precompute = sim::Precompute::kAllPairs,
    sim::DenseKernel kernel = sim::DenseKernel::kAuto,
    OpenStats* stats = nullptr);

/// The condensed pairwise distance triangle of `engine`'s profiles.
cluster::DistanceMatrix open_or_compute_condensed(
    ArtifactStore& store, const sim::SimilarityEngine& engine,
    par::ThreadPool& pool, OpenStats* stats = nullptr);

/// The LSH signature index over `engine` under `params`. A warm open
/// skips the O(n·bits) hyperplane projection pass entirely and serves the
/// bank and bucket tables borrowed from the artifact.
sim::LshIndex open_or_build_lsh(ArtifactStore& store,
                                const sim::SimilarityEngine& engine,
                                const sim::LshParams& params,
                                par::ThreadPool& pool,
                                OpenStats* stats = nullptr);

/// The SPELL search (per-dataset dot banks) over a compendium. A warm
/// open serves every bank borrowed from the one artifact.
spell::SpellSearch open_or_build_spell(
    ArtifactStore& store, const std::vector<expr::Dataset>& datasets,
    par::ThreadPool& pool, OpenStats* stats = nullptr);

// ---- opaque result blobs -----------------------------------------------
//
// The serving layer's content-addressed result cache persists rendered
// response payloads (JSON bytes) under ArtifactKind::kBlob so a restarted
// server answers repeat requests warm. A blob is one single-section
// artifact; the payload is returned verbatim, so a warm response is
// bit-identical to the one that was cached. The blob layout is known only
// to this pair of functions.

/// Commits `bytes` under (kBlob, key). Throws like ArtifactStore::put.
void put_blob(ArtifactStore& store, ArtifactKey key, std::string_view bytes);

/// The blob at (kBlob, key), through load_or_compute like every other
/// kind: warm when a valid blob exists, otherwise `compute()` and persist
/// it best-effort (a damaged blob is quarantined or removed on the way).
/// InjectedCrash and errors thrown by `compute` propagate.
std::string open_or_compute_blob(ArtifactStore& store, ArtifactKey key,
                                 const std::function<std::string()>& compute,
                                 OpenStats* stats = nullptr);

}  // namespace fv::store
