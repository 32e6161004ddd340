#include "store/cached.hpp"

#include <dirent.h>

#include <algorithm>
#include <cstring>

#include "store/mapped_file.hpp"
#include "util/xxhash.hpp"

namespace fv::store {

namespace {

/// Fixed-size engine metadata, one scalar section. Everything else in the
/// engine is one of its 13 state vectors.
struct EngineMeta {
  std::uint32_t metric;
  std::uint32_t precompute;
  std::uint32_t float_kernel;
  float prune_slack;
  std::uint64_t count;
  std::uint64_t length;
  std::uint64_t stride;
  std::uint64_t mask_words;
  std::uint64_t seg_count;
};
static_assert(std::is_trivially_copyable_v<EngineMeta>);

struct LshMeta {
  std::uint64_t count;
  std::uint64_t bits;
  std::uint64_t words;
  std::uint64_t slice_bits;
  std::uint64_t tables;
  std::uint64_t probes;
};
static_assert(std::is_trivially_copyable_v<LshMeta>);

void check_section_size(const ArtifactReader& reader, std::size_t section,
                        std::size_t actual, std::size_t expected,
                        const char* what) {
  if (actual != expected) {
    throw CorruptArtifactError(
        "artifact '" + reader.path() + "' section " +
        std::to_string(section) + " (" + what + ") holds " +
        std::to_string(actual) + " elements, expected " +
        std::to_string(expected));
  }
}

/// The EngineStoragePin behind every borrowed-mapped engine and LSH index:
/// a shared_ptr keeps the validated reader (and so the mapping under every
/// borrowed span) alive exactly as long as any consumer; the residency and
/// backing hooks delegate to the reader's mapping.
class MappedArtifactPin final : public sim::EngineStoragePin {
 public:
  explicit MappedArtifactPin(std::shared_ptr<const ArtifactReader> reader)
      : reader_(std::move(reader)) {}

  void release_pages(const void* data, std::size_t bytes) const override {
    reader_->release_pages(data, bytes);
  }
  void check_backing() const override { reader_->check_backing(); }

 private:
  std::shared_ptr<const ArtifactReader> reader_;
};

}  // namespace

// ---- keys --------------------------------------------------------------

ArtifactKey matrix_key(const expr::ExpressionMatrix& matrix) {
  return KeyBuilder{}
      .string("matrix")
      .value(static_cast<std::uint64_t>(matrix.rows()))
      .value(static_cast<std::uint64_t>(matrix.cols()))
      .span(matrix.data())
      .key();
}

ArtifactKey compendium_files_key(const std::string& directory) {
  DIR* dir = ::opendir(directory.c_str());
  if (dir == nullptr) {
    throw IoError("cannot open compendium directory '" + directory + "'");
  }
  std::vector<std::string> names;
  while (const dirent* ent = ::readdir(dir)) {
    const std::string name = ent->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(name);
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  KeyBuilder builder;
  builder.string("compendium-files");
  for (const auto& name : names) {
    MappedFile file;
    try {
      file = MappedFile::open_read_only(directory + "/" + name);
    } catch (const IoError&) {
      continue;  // subdirectories and unreadable entries are not content
    }
    builder.string(name);
    builder.value(static_cast<std::uint64_t>(file.size()));
    if (file.size() > 0) builder.bytes({file.data(), file.size()});
  }
  return builder.key();
}

ArtifactKey engine_key(ArtifactKey input_key, sim::Metric metric,
                       sim::Precompute precompute,
                       sim::DenseKernel kernel) {
  return KeyBuilder{}
      .string("engine")
      .value(input_key)
      .value(static_cast<std::uint32_t>(metric))
      .value(static_cast<std::uint32_t>(precompute))
      .value(static_cast<std::uint32_t>(kernel))
      .key();
}

ArtifactKey lsh_key(ArtifactKey engine_content,
                    const sim::LshParams& params) {
  return KeyBuilder{}
      .string("lsh")
      .value(engine_content)
      .value(static_cast<std::uint64_t>(params.bits))
      .value(static_cast<std::uint64_t>(params.tables))
      .value(static_cast<std::uint64_t>(params.probes))
      .value(params.seed)
      .key();
}

// ---- EngineCodec -------------------------------------------------------

ArtifactKey EngineCodec::content_key(const sim::SimilarityEngine& engine) {
  // Input content + the params that shape derived state; derived vectors
  // are NOT hashed — they are a function of these. kAllPairs engines carry
  // their input verbatim (filled rows + masks); kDotBank engines keep only
  // derived state, so their content is keyed by normalized rows + present
  // counts instead (filled_/mask_ are legitimately empty there, and
  // hashing empty spans would collide distinct compendia).
  KeyBuilder builder;
  builder.string("engine-content")
      .value(static_cast<std::uint32_t>(engine.metric_))
      .value(static_cast<std::uint32_t>(engine.precompute_))
      .value(static_cast<std::uint32_t>(engine.float_kernel_ ? 1 : 0))
      .value(static_cast<std::uint64_t>(engine.count_))
      .value(static_cast<std::uint64_t>(engine.length_));
  if (engine.precompute_ == sim::Precompute::kAllPairs) {
    builder.span(engine.filled_.span()).span(engine.mask_.span());
  } else {
    builder.span(engine.normalized_.span()).span(engine.present_.span());
  }
  return builder.key();
}

void EngineCodec::save(ArtifactWriter& writer,
                       const sim::SimilarityEngine& engine) {
  EngineMeta meta{};
  meta.metric = static_cast<std::uint32_t>(engine.metric_);
  meta.precompute = static_cast<std::uint32_t>(engine.precompute_);
  meta.float_kernel = engine.float_kernel_ ? 1 : 0;
  meta.prune_slack = engine.prune_slack_;
  meta.count = engine.count_;
  meta.length = engine.length_;
  meta.stride = engine.stride_;
  meta.mask_words = engine.mask_words_;
  meta.seg_count = engine.seg_count_;
  writer.scalar(meta);
  writer.section(engine.raw_.span());
  writer.section(engine.filled_.span());
  writer.section(engine.normalized_.span());
  writer.section(engine.mask_.span());
  writer.section(engine.present_.span());
  writer.section(engine.has_missing_.span());
  writer.section(engine.degenerate_.span());
  writer.section(engine.zscale_.span());
  writer.section(engine.missing_idx_.span());
  writer.section(engine.missing_begin_.span());
  writer.section(engine.own_sum_.span());
  writer.section(engine.own_sumsq_.span());
  writer.section(engine.seg_norms_.span());
}

sim::SimilarityEngine EngineCodec::load(
    std::shared_ptr<const ArtifactReader> reader, std::size_t& section) {
  const auto meta = reader->scalar<EngineMeta>(section++);
  sim::SimilarityEngine engine;
  engine.metric_ = static_cast<sim::Metric>(meta.metric);
  engine.precompute_ = static_cast<sim::Precompute>(meta.precompute);
  engine.float_kernel_ = meta.float_kernel != 0;
  engine.prune_slack_ = meta.prune_slack;
  engine.count_ = static_cast<std::size_t>(meta.count);
  engine.length_ = static_cast<std::size_t>(meta.length);
  engine.stride_ = static_cast<std::size_t>(meta.stride);
  engine.mask_words_ = static_cast<std::size_t>(meta.mask_words);
  engine.seg_count_ = static_cast<std::size_t>(meta.seg_count);
  // Every state array is borrowed, not copied: the spans point into the
  // reader's mapping, which the pin below keeps alive for the engine's
  // whole lifetime (and any engine copied/moved from it: shared_ptr
  // semantics).
  engine.raw_.borrow(reader->section<float>(section++));
  engine.filled_.borrow(reader->section<float>(section++));
  engine.normalized_.borrow(reader->section<float>(section++));
  engine.mask_.borrow(reader->section<std::uint64_t>(section++));
  engine.present_.borrow(reader->section<std::uint32_t>(section++));
  engine.has_missing_.borrow(reader->section<std::uint8_t>(section++));
  engine.degenerate_.borrow(reader->section<std::uint8_t>(section++));
  engine.zscale_.borrow(reader->section<float>(section++));
  engine.missing_idx_.borrow(reader->section<std::uint32_t>(section++));
  engine.missing_begin_.borrow(reader->section<std::uint32_t>(section++));
  engine.own_sum_.borrow(reader->section<double>(section++));
  engine.own_sumsq_.borrow(reader->section<double>(section++));
  engine.seg_norms_.borrow(reader->section<float>(section++));
  // The arrays whose sizes are fully determined by the meta are checked
  // here; checksums catch bit damage, this catches a codec/meta mismatch.
  // kDotBank engines legitimately persist empty pairwise-only state
  // (filled rows, masks) — see SimilarityEngine::build.
  const bool all_pairs =
      engine.precompute_ == sim::Precompute::kAllPairs;
  check_section_size(*reader, section - 12, engine.filled_.size(),
                     all_pairs ? engine.count_ * engine.stride_ : 0,
                     "filled rows");
  check_section_size(*reader, section - 10, engine.mask_.size(),
                     all_pairs ? engine.count_ * engine.mask_words_ : 0,
                     "missing masks");
  check_section_size(*reader, section - 9, engine.present_.size(),
                     engine.count_, "present counts");
  engine.pin_ = std::make_shared<MappedArtifactPin>(std::move(reader));
  return engine;
}

// ---- LshCodec ----------------------------------------------------------

void LshCodec::save(ArtifactWriter& writer, const sim::LshIndex& index) {
  LshMeta meta{};
  meta.count = index.count_;
  meta.bits = index.bits_;
  meta.words = index.words_;
  meta.slice_bits = index.slice_bits_;
  meta.tables = index.tables_;
  meta.probes = index.probes_;
  writer.scalar(meta);
  writer.section(index.signatures_.span());
  // Each bucket table holds exactly count_ (key, row) entries; flatten
  // them table-major so the whole bank is two sections.
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> rows;
  keys.reserve(index.tables_ * index.count_);
  rows.reserve(index.tables_ * index.count_);
  for (const auto& table : index.tables_storage_) {
    keys.insert(keys.end(), table.keys.begin(), table.keys.end());
    rows.insert(rows.end(), table.rows.begin(), table.rows.end());
  }
  writer.section(keys);
  writer.section(rows);
  writer.section(index.probe_bits_.span());
}

sim::LshIndex LshCodec::load(std::shared_ptr<const ArtifactReader> reader,
                             std::size_t& section) {
  const auto meta = reader->scalar<LshMeta>(section++);
  sim::LshIndex index;
  index.count_ = static_cast<std::size_t>(meta.count);
  index.bits_ = static_cast<std::size_t>(meta.bits);
  index.words_ = static_cast<std::size_t>(meta.words);
  index.slice_bits_ = static_cast<std::size_t>(meta.slice_bits);
  index.tables_ = static_cast<std::size_t>(meta.tables);
  index.probes_ = static_cast<std::size_t>(meta.probes);
  index.signatures_.borrow(reader->section<std::uint64_t>(section++));
  const auto keys = reader->section<std::uint64_t>(section++);
  const auto rows = reader->section<std::uint32_t>(section++);
  index.probe_bits_.borrow(reader->section<std::uint16_t>(section++));
  check_section_size(*reader, section - 4, index.signatures_.size(),
                     index.count_ * index.words_, "signatures");
  check_section_size(*reader, section - 3, keys.size(),
                     index.tables_ * index.count_, "bucket keys");
  check_section_size(*reader, section - 2, rows.size(),
                     index.tables_ * index.count_, "bucket rows");
  // Each table borrows its slice of the flat table-major banks — the
  // sections were written per-table contiguous precisely so a reopen needs
  // no per-table copies.
  index.tables_storage_.resize(index.tables_);
  for (std::size_t t = 0; t < index.tables_; ++t) {
    auto& table = index.tables_storage_[t];
    const std::size_t begin = t * index.count_;
    table.keys.borrow(keys.subspan(begin, index.count_));
    table.rows.borrow(rows.subspan(begin, index.count_));
  }
  index.pin_ = std::make_shared<MappedArtifactPin>(std::move(reader));
  return index;
}

// ---- SpellCodec --------------------------------------------------------

ArtifactKey SpellCodec::content_key(
    const std::vector<expr::Dataset>& datasets) {
  KeyBuilder builder;
  builder.string("spell-banks");
  builder.value(static_cast<std::uint64_t>(datasets.size()));
  for (const auto& dataset : datasets) {
    builder.string(dataset.name());
    builder.value(matrix_key(dataset.values()));
  }
  return builder.key();
}

void SpellCodec::save(ArtifactWriter& writer,
                      const spell::SpellSearch& search) {
  writer.scalar(static_cast<std::uint64_t>(search.engines_.size()));
  for (const auto& engine : search.engines_) {
    EngineCodec::save(writer, engine);
  }
}

spell::SpellSearch SpellCodec::load(
    std::shared_ptr<const ArtifactReader> reader,
    const std::vector<expr::Dataset>& datasets) {
  std::size_t section = 0;
  const auto bank_count = reader->scalar<std::uint64_t>(section++);
  if (bank_count != datasets.size()) {
    throw CorruptArtifactError(
        "spell artifact '" + reader->path() + "' holds " +
        std::to_string(bank_count) + " dot banks for " +
        std::to_string(datasets.size()) + " datasets");
  }
  std::vector<sim::SimilarityEngine> engines;
  engines.reserve(datasets.size());
  for (std::size_t d = 0; d < bank_count; ++d) {
    engines.push_back(EngineCodec::load(reader, section));
  }
  return spell::SpellSearch(&datasets, std::move(engines));
}

// ---- DistanceCodec -----------------------------------------------------

void DistanceCodec::save(ArtifactWriter& writer,
                         const cluster::DistanceMatrix& distances) {
  writer.scalar(static_cast<std::uint64_t>(distances.size()));
  writer.section(distances.condensed());
}

cluster::DistanceMatrix DistanceCodec::load(const ArtifactReader& reader,
                                            std::size_t& section) {
  const auto n =
      static_cast<std::size_t>(reader.scalar<std::uint64_t>(section++));
  const auto values = reader.section<float>(section++);
  cluster::DistanceMatrix distances(n);
  check_section_size(reader, section - 1, values.size(),
                     distances.condensed().size(), "condensed distances");
  std::memcpy(distances.condensed().data(), values.data(),
              values.size() * sizeof(float));
  return distances;
}

// ---- cached consumers --------------------------------------------------

sim::SimilarityEngine open_or_build_engine(
    ArtifactStore& store, ArtifactKey input_key,
    const std::function<expr::ExpressionMatrix()>& load_matrix,
    sim::Metric metric, sim::Precompute precompute, sim::DenseKernel kernel,
    OpenStats* stats) {
  const ArtifactKey key = engine_key(input_key, metric, precompute, kernel);
  const auto load = [](std::shared_ptr<const ArtifactReader> reader) {
    std::size_t section = 0;
    return EngineCodec::load(std::move(reader), section);
  };
  OpenStats local;
  OpenStats& served = stats != nullptr ? *stats : local;
  sim::SimilarityEngine engine = load_or_compute<sim::SimilarityEngine>(
      store, ArtifactKind::kEngine, key, load,
      [&]() {
        const expr::ExpressionMatrix matrix = load_matrix();
        return sim::SimilarityEngine::from_rows(matrix, metric, precompute,
                                                kernel);
      },
      [](ArtifactWriter& writer, const sim::SimilarityEngine& built) {
        EngineCodec::save(writer, built);
      },
      &served);
  if (served.warm || !served.persisted) return engine;
  // The commit succeeded, so the artifact under the final name is exactly
  // the engine just built; serve it borrowed like a warm open. Failing to
  // reopen what was just committed degrades to the heap build rather than
  // erroring — the caller asked for a correct engine first, a mapped one
  // second.
  try {
    if (auto reader =
            store.open(ArtifactKind::kEngine, key, PageResidency::kOnDemand)) {
      return load(std::make_shared<const ArtifactReader>(std::move(*reader)));
    }
  } catch (const Error& error) {
    detail::log_artifact_recovery(store.artifact_path(ArtifactKind::kEngine,
                                                      key),
                                  "mapped-reopen-failed", error.what(),
                                  "serving heap-built engine");
  }
  return engine;
}

cluster::DistanceMatrix open_or_compute_condensed(
    ArtifactStore& store, const sim::SimilarityEngine& engine,
    par::ThreadPool& pool, OpenStats* stats) {
  const ArtifactKey key = KeyBuilder{}
                              .string("condensed")
                              .value(EngineCodec::content_key(engine))
                              .key();
  return load_or_compute<cluster::DistanceMatrix>(
      store, ArtifactKind::kCondensedDistances, key,
      [](std::shared_ptr<const ArtifactReader> reader) {
        std::size_t section = 0;
        return DistanceCodec::load(*reader, section);
      },
      [&]() {
        cluster::DistanceMatrix distances(engine.size());
        engine.condensed_distances(distances.condensed(), pool);
        return distances;
      },
      [](ArtifactWriter& writer, const cluster::DistanceMatrix& distances) {
        DistanceCodec::save(writer, distances);
      },
      stats);
}

sim::LshIndex open_or_build_lsh(ArtifactStore& store,
                                const sim::SimilarityEngine& engine,
                                const sim::LshParams& params,
                                par::ThreadPool& pool, OpenStats* stats) {
  const ArtifactKey key = lsh_key(EngineCodec::content_key(engine), params);
  return load_or_compute<sim::LshIndex>(
      store, ArtifactKind::kLshIndex, key,
      [](std::shared_ptr<const ArtifactReader> reader) {
        std::size_t section = 0;
        return LshCodec::load(std::move(reader), section);
      },
      [&]() { return sim::LshIndex(engine, params, pool); },
      [](ArtifactWriter& writer, const sim::LshIndex& index) {
        LshCodec::save(writer, index);
      },
      stats);
}

spell::SpellSearch open_or_build_spell(
    ArtifactStore& store, const std::vector<expr::Dataset>& datasets,
    par::ThreadPool& pool, OpenStats* stats) {
  const ArtifactKey key = SpellCodec::content_key(datasets);
  return load_or_compute<spell::SpellSearch>(
      store, ArtifactKind::kEngine, key,
      [&](std::shared_ptr<const ArtifactReader> reader) {
        return SpellCodec::load(std::move(reader), datasets);
      },
      [&]() { return spell::SpellSearch(datasets, pool); },
      [](ArtifactWriter& writer, const spell::SpellSearch& search) {
        SpellCodec::save(writer, search);
      },
      stats);
}

namespace {

/// A blob is one section holding the payload verbatim.
void write_blob(ArtifactWriter& writer, std::string_view bytes) {
  writer.section_bytes(
      std::as_bytes(std::span<const char>(bytes.data(), bytes.size())));
}

}  // namespace

void put_blob(ArtifactStore& store, ArtifactKey key, std::string_view bytes) {
  store.put(ArtifactKind::kBlob, key,
            [&](ArtifactWriter& writer) { write_blob(writer, bytes); });
}

std::string open_or_compute_blob(ArtifactStore& store, ArtifactKey key,
                                 const std::function<std::string()>& compute,
                                 OpenStats* stats) {
  return load_or_compute<std::string>(
      store, ArtifactKind::kBlob, key,
      [](std::shared_ptr<const ArtifactReader> reader) {
        const auto bytes = reader->section_bytes(0);
        return std::string(reinterpret_cast<const char*>(bytes.data()),
                           bytes.size());
      },
      compute,
      [](ArtifactWriter& writer, const std::string& bytes) {
        write_blob(writer, bytes);
      },
      stats);
}

}  // namespace fv::store
