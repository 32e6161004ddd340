#include "sim/lsh.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numbers>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace fv::sim {

namespace {

constexpr std::size_t kNoFlip = std::numeric_limits<std::size_t>::max();

/// Same 16-lane double accumulator shape as the engine's dense kernel:
/// fixed lane array, so the compiler vectorizes at any SIMD width without
/// reassociation and the projection signs are identical on every ISA.
constexpr std::size_t kLanes = 16;

double dot_lanes(const float* a, const float* b, std::size_t stride) {
  double acc[kLanes] = {};
  for (std::size_t k = 0; k < stride; k += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      acc[l] += static_cast<double>(a[k + l]) * static_cast<double>(b[k + l]);
    }
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kLanes; ++l) total += acc[l];
  return total;
}

/// splitmix64 finalizer — the slice-word mixer. Hash collisions between
/// distinct slices only add candidates (rescored exactly); equal slices
/// always hash equal, so no true collision is ever lost.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Bits [begin, begin + count) of a packed signature, count <= 64. The
/// second word read exists whenever the range crosses a word boundary
/// (begin + count never exceeds the signature width).
std::uint64_t extract_bits(const std::uint64_t* sig, std::size_t begin,
                           std::size_t count) {
  const std::size_t w = begin / 64;
  const std::size_t off = begin % 64;
  std::uint64_t v = sig[w] >> off;
  if (off + count > 64) v |= sig[w + 1] << (64 - off);
  if (count < 64) v &= (std::uint64_t{1} << count) - 1;
  return v;
}

}  // namespace

std::size_t hamming_words(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t words) {
  std::size_t distance = 0;
  for (std::size_t w = 0; w < words; ++w) {
    distance += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  }
  return distance;
}

std::size_t hamming_words_portable(const std::uint64_t* a,
                                   const std::uint64_t* b,
                                   std::size_t words) {
  std::size_t distance = 0;
  for (std::size_t w = 0; w < words; ++w) {
    // Classic SWAR population count: pairwise, then nibble, then byte
    // sums, folded with one multiply.
    std::uint64_t x = a[w] ^ b[w];
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    distance += static_cast<std::size_t>((x * 0x0101010101010101ULL) >> 56);
  }
  return distance;
}

LshIndex::LshIndex(const SimilarityEngine& engine, const LshParams& params,
                   par::ThreadPool& pool) {
  FV_REQUIRE(engine.metric() != Metric::kEuclidean,
             "LshIndex needs a correlation metric — Euclidean rows are "
             "unnormalized, so Hamming ≈ angle does not estimate the metric");
  FV_REQUIRE(params.bits >= 64 && params.bits <= 1024 &&
                 params.bits % 64 == 0,
             "LshParams::bits must be a multiple of 64 in [64, 1024]");
  FV_REQUIRE(params.tables >= 1 && params.tables <= params.bits,
             "LshParams::tables must be in [1, bits]");
  slice_bits_ = params.bits / params.tables;
  FV_REQUIRE(params.probes >= 1 && params.probes <= slice_bits_ + 1,
             "LshParams::probes must be in [1, bits/tables + 1]");

  count_ = engine.size();
  bits_ = params.bits;
  words_ = bits_ / 64;
  tables_ = params.tables;
  probes_ = params.probes;

  // Hyperplane bank: bits x stride floats, Gaussian over the engine's
  // length() real coordinates and zero over the padding tail, drawn from
  // one fv::Rng stream in a fixed order — same seed, same bank, on every
  // platform.
  const std::size_t stride = engine.stride();
  const std::size_t length = engine.length();
  std::vector<float> planes(bits_ * stride, 0.0f);
  Rng rng(params.seed);
  for (std::size_t b = 0; b < bits_; ++b) {
    float* plane = planes.data() + b * stride;
    for (std::size_t k = 0; k < length; ++k) {
      plane[k] = static_cast<float>(rng.normal());
    }
  }

  signatures_.assign(count_ * words_, 0);
  probe_bits_.assign(
      probes_ > 1 ? count_ * tables_ * (probes_ - 1) : 0, 0);

  // One pass per profile: bits projections, packed signs, and — when
  // probing — each table slice's lowest-margin bits. Rows are independent
  // and write disjoint ranges, so the pooled loop is deterministic under
  // any schedule.
  par::parallel_for(pool, 0, count_, 16, [&](std::size_t i) {
    const std::span<const float> row = engine.normalized_row(i);
    std::vector<double> proj(bits_, 0.0);
    if (!row.empty()) {
      for (std::size_t b = 0; b < bits_; ++b) {
        proj[b] = dot_lanes(row.data(), planes.data() + b * stride, stride);
      }
    }
    std::uint64_t* sig = signatures_.data() + i * words_;
    for (std::size_t b = 0; b < bits_; ++b) {
      // Ties at exactly 0 (all-zero normalized rows: degenerate profiles,
      // Spearman rows with missing cells) deterministically set the bit.
      if (proj[b] >= 0.0) sig[b / 64] |= std::uint64_t{1} << (b % 64);
    }
    if (probes_ > 1) {
      const std::size_t per = probes_ - 1;
      for (std::size_t t = 0; t < tables_; ++t) {
        // Smallest-|projection| slice bits, ties by bit index: a small
        // insertion pass — `per` is 1 in the default configuration.
        std::uint16_t* out = probe_bits_.data() + (i * tables_ + t) * per;
        std::vector<std::pair<double, std::uint16_t>> best;
        best.reserve(per);
        for (std::size_t s = 0; s < slice_bits_; ++s) {
          const std::pair<double, std::uint16_t> cand{
              std::abs(proj[t * slice_bits_ + s]),
              static_cast<std::uint16_t>(s)};
          if (best.size() < per) {
            best.insert(std::upper_bound(best.begin(), best.end(), cand),
                        cand);
          } else if (cand < best.back()) {
            best.pop_back();
            best.insert(std::upper_bound(best.begin(), best.end(), cand),
                        cand);
          }
        }
        for (std::size_t p = 0; p < per; ++p) out[p] = best[p].second;
      }
    }
  });

  // Bucket tables: ids sorted by (slice key, id). Sorting (not hashing
  // into an unordered container) keeps bucket enumeration order — and so
  // candidate generation — deterministic.
  tables_storage_.resize(tables_);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> kv(count_);
  for (std::size_t t = 0; t < tables_; ++t) {
    for (std::size_t i = 0; i < count_; ++i) {
      kv[i] = {slice_key(i, t, kNoFlip), static_cast<std::uint32_t>(i)};
    }
    std::sort(kv.begin(), kv.end());
    Table& table = tables_storage_[t];
    table.keys.resize(count_);
    table.rows.resize(count_);
    for (std::size_t i = 0; i < count_; ++i) {
      table.keys[i] = kv[i].first;
      table.rows[i] = kv[i].second;
    }
  }
}

std::span<const std::uint64_t> LshIndex::signature(std::size_t i) const {
  FV_REQUIRE(i < count_, "profile index out of range");
  return {signatures_.data() + i * words_, words_};
}

std::size_t LshIndex::hamming(std::size_t i, std::size_t j) const {
  FV_REQUIRE(i < count_ && j < count_, "profile index out of range");
  return hamming_words(signatures_.data() + i * words_,
                       signatures_.data() + j * words_, words_);
}

double LshIndex::estimated_distance(std::size_t i, std::size_t j) const {
  const double theta = std::numbers::pi * static_cast<double>(hamming(i, j)) /
                       static_cast<double>(bits_);
  return 1.0 - std::cos(theta);
}

std::uint64_t LshIndex::slice_key(std::size_t row, std::size_t table,
                                  std::size_t flip_bit) const {
  const std::uint64_t* sig = signatures_.data() + row * words_;
  const std::size_t begin = table * slice_bits_;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t off = 0; off < slice_bits_; off += 64) {
    const std::size_t chunk = std::min<std::size_t>(64, slice_bits_ - off);
    std::uint64_t v = extract_bits(sig, begin + off, chunk);
    if (flip_bit != kNoFlip && flip_bit >= off && flip_bit < off + chunk) {
      v ^= std::uint64_t{1} << (flip_bit - off);
    }
    h = mix64(h ^ v);
  }
  return h;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> LshIndex::candidate_pairs(
    CandidateStats* stats) const {
  CandidateStats local;
  const std::size_t per = probes_ > 1 ? probes_ - 1 : 0;
  const std::uint32_t none = static_cast<std::uint32_t>(count_);

  // Per-table lookups, all from one merge-join of the sorted key bank with
  // the table's probes sorted by (key, row). Inside a bucket (a run of
  // equal keys) ids ascend, and so do the rows of the probes that share a
  // key, so "the partners above row i" is always a suffix of a range.
  struct Sweep {
    std::vector<std::uint32_t> position;    ///< row -> index in the table
    std::vector<std::uint32_t> bucket_end;  ///< index -> end of its bucket
    /// index -> [begin, end) in probe_rows of the probes keyed on its bucket
    std::vector<std::uint32_t> inbound_begin, inbound_end;
    std::vector<std::uint32_t> probe_rows;  ///< probing rows, sorted by key
    /// (row·per + p) -> table index where probe p of the row lands, or
    /// `none` when its key matches no bucket
    std::vector<std::uint32_t> probe_target;
  };
  std::vector<Sweep> sweeps(tables_);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> probe_keys;
  for (std::size_t t = 0; t < tables_; ++t) {
    const Table& table = tables_storage_[t];
    Sweep& sweep = sweeps[t];
    sweep.position.resize(count_);
    sweep.bucket_end.resize(count_);
    sweep.inbound_begin.resize(count_);
    sweep.inbound_end.resize(count_);
    for (std::size_t x = 0; x < count_; ++x) {
      sweep.position[table.rows[x]] = static_cast<std::uint32_t>(x);
    }
    // Multi-probe: each profile also looks up the buckets reached by
    // flipping its lowest-margin slice bits, one at a time.
    probe_keys.resize(count_ * per);
    for (std::size_t i = 0; i < count_; ++i) {
      const std::uint16_t* pb = probe_bits_.data() + (i * tables_ + t) * per;
      for (std::size_t p = 0; p < per; ++p) {
        probe_keys[i * per + p] = {slice_key(i, t, pb[p]),
                                   static_cast<std::uint32_t>(i * per + p)};
      }
    }
    std::sort(probe_keys.begin(), probe_keys.end());
    sweep.probe_rows.resize(probe_keys.size());
    for (std::size_t q = 0; q < probe_keys.size(); ++q) {
      sweep.probe_rows[q] = static_cast<std::uint32_t>(
          probe_keys[q].second / per);
    }
    sweep.probe_target.assign(probe_keys.size(), none);
    local.buckets_probed += probe_keys.size();

    std::size_t q = 0;
    std::size_t b = 0;
    while (b < count_) {
      std::size_t e = b + 1;
      while (e < count_ && table.keys[e] == table.keys[b]) ++e;
      ++local.buckets_probed;
      local.candidates_generated += (e - b) * (e - b - 1) / 2;
      const std::uint64_t key = table.keys[b];
      while (q < probe_keys.size() && probe_keys[q].first < key) ++q;
      const std::size_t inbound = q;
      for (; q < probe_keys.size() && probe_keys[q].first == key; ++q) {
        sweep.probe_target[probe_keys[q].second] =
            static_cast<std::uint32_t>(b);
        // A probe never pairs a row with itself.
        const std::size_t own = sweep.position[sweep.probe_rows[q]];
        local.candidates_generated += (e - b) - (own >= b && own < e);
      }
      for (std::size_t x = b; x < e; ++x) {
        sweep.bucket_end[x] = static_cast<std::uint32_t>(e);
        sweep.inbound_begin[x] = static_cast<std::uint32_t>(inbound);
        sweep.inbound_end[x] = static_cast<std::uint32_t>(q);
      }
      b = e;
    }
  }

  // Row by row, gather every partner j > i from the three sources of each
  // table (i's own bucket, the buckets i's probes land in, the probes that
  // land in i's bucket), dedupe with a stamp, and append the sorted row —
  // the output is (i, j)-sorted with no global sort of the collisions.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::vector<std::uint32_t> stamp(count_, none);
  std::vector<std::uint32_t> partners;
  for (std::size_t i = 0; i < count_; ++i) {
    const auto row = static_cast<std::uint32_t>(i);
    partners.clear();
    const auto take = [&](const std::uint32_t* begin,
                          const std::uint32_t* end) {
      for (const std::uint32_t* it = std::upper_bound(begin, end, row);
           it != end; ++it) {
        if (stamp[*it] != row) {
          stamp[*it] = row;
          partners.push_back(*it);
        }
      }
    };
    for (std::size_t t = 0; t < tables_; ++t) {
      const Sweep& sweep = sweeps[t];
      const std::uint32_t* rows = tables_storage_[t].rows.data();
      const std::uint32_t x = sweep.position[i];
      take(rows + x + 1, rows + sweep.bucket_end[x]);
      for (std::size_t p = 0; p < per; ++p) {
        const std::uint32_t target = sweep.probe_target[i * per + p];
        if (target != none) {
          take(rows + target, rows + sweep.bucket_end[target]);
        }
      }
      take(sweep.probe_rows.data() + sweep.inbound_begin[x],
           sweep.probe_rows.data() + sweep.inbound_end[x]);
    }
    std::sort(partners.begin(), partners.end());
    for (const std::uint32_t j : partners) pairs.emplace_back(row, j);
  }
  local.pairs = pairs.size();
  if (stats != nullptr) *stats = local;
  return pairs;
}

}  // namespace fv::sim
