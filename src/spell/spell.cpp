#include "spell/spell.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "stats/correlation.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace fv::spell {

namespace {

/// Per-dataset partial results produced in parallel.
struct DatasetContribution {
  double weight = 0.0;
  std::size_t query_found = 0;
  /// Per measured gene: (systematic name index handled by caller) weighted
  /// correlation sum contribution and support flag.
  std::vector<double> gene_correlation;  // parallel to dataset rows
};

/// Query-coherence weight of one dataset: mean pairwise Pearson among the
/// query genes found there, clamped at zero (anti-coherent datasets carry no
/// evidence). Needs >= 2 query genes to say anything. The query rows are
/// stacked into a small sub-engine and the pair sums stream through its
/// tile visitor — the iterative search grows the query every round, so the
/// per-round q(q-1)/2 pairs run on the blocked kernels instead of the
/// scalar per-pair path, and the long-lived per-dataset engine stays a
/// memory-lean dot bank. Serial tile walk on purpose: this runs inside the
/// per-dataset pool task, and a blocking nested parallel loop on the same
/// pool could deadlock.
double dataset_weight(const expr::Dataset& dataset,
                      const std::vector<std::size_t>& query_rows) {
  std::vector<std::span<const float>> profiles;
  profiles.reserve(query_rows.size());
  for (const std::size_t row : query_rows) {
    profiles.push_back(dataset.profile(row));
  }
  return sim::profile_coherence(profiles, dataset.condition_count());
}

DatasetContribution score_dataset(const expr::Dataset& dataset,
                                  const sim::SimilarityEngine& engine,
                                  const std::vector<std::string>& query) {
  DatasetContribution out;
  std::vector<std::size_t> query_rows;
  for (const std::string& gene : query) {
    if (const auto row = dataset.row_of(gene); row.has_value()) {
      query_rows.push_back(*row);
    }
  }
  out.query_found = query_rows.size();
  if (query_rows.empty()) return out;
  out.weight = dataset_weight(dataset, query_rows);
  if (out.weight <= 0.0) return out;

  // Mean correlation of every gene to the query = correlation with the mean
  // of the query's z-profiles (zdot is bilinear in its arguments). The
  // bank's unit-norm rows scale back to z-rows via zscale(), so the
  // centroid is assembled without touching raw profiles, and the whole
  // gene sweep is one dot_all pass.
  const std::size_t genes = dataset.gene_count();
  std::size_t centroid_present = dataset.condition_count();
  std::vector<float> centroid(engine.stride(), 0.0f);
  const float inv_k = 1.0f / static_cast<float>(query_rows.size());
  for (const std::size_t row : query_rows) {
    centroid_present = std::min<std::size_t>(centroid_present,
                                             engine.present(row));
    const auto u = engine.normalized_row(row);
    const float scale = engine.zscale(row) * inv_k;
    for (std::size_t c = 0; c < u.size(); ++c) centroid[c] += u[c] * scale;
  }

  std::vector<double> dots(genes);
  engine.dot_all(centroid, dots);
  out.gene_correlation.resize(genes);
  for (std::size_t row = 0; row < genes; ++row) {
    // zdot convention: r = dot(z_row, z_centroid) / (min(present) - 1),
    // clamped; 0 when too few values overlap.
    const std::size_t overlap =
        std::min<std::size_t>(engine.present(row), centroid_present);
    if (overlap < stats::kMinCompletePairs) {
      out.gene_correlation[row] = 0.0;
      continue;
    }
    const double r = static_cast<double>(engine.zscale(row)) * dots[row] /
                     static_cast<double>(overlap - 1);
    out.gene_correlation[row] = std::clamp(r, -1.0, 1.0);
  }
  return out;
}

}  // namespace

SpellSearch::SpellSearch(const std::vector<expr::Dataset>& datasets)
    : SpellSearch(datasets, par::ThreadPool::shared()) {}

SpellSearch::SpellSearch(const std::vector<expr::Dataset>& datasets,
                         par::ThreadPool& pool)
    : datasets_(&datasets) {
  FV_REQUIRE(!datasets.empty(), "SPELL needs at least one dataset");
  // Bank builds are independent per dataset; at compendium scale the
  // normalization pass is worth spreading across the pool.
  engines_.resize(datasets.size());
  par::parallel_for(pool, 0, datasets.size(), 1, [&](std::size_t d) {
    engines_[d] = sim::SimilarityEngine::from_rows(
        datasets[d].values(), sim::Metric::kPearson,
        sim::Precompute::kDotBank);
  });
}

SpellResult SpellSearch::search(const std::vector<std::string>& query,
                                const SpellOptions& options) const {
  return search(query, options, par::ThreadPool::shared());
}

SpellResult SpellSearch::search(const std::vector<std::string>& query,
                                const SpellOptions& options,
                                par::ThreadPool& pool) const {
  FV_REQUIRE(!query.empty(), "SPELL query must contain at least one gene");
  const auto& datasets = *datasets_;

  std::vector<DatasetContribution> contributions(datasets.size());
  par::parallel_for(pool, 0, datasets.size(), 1, [&](std::size_t d) {
    // A bank restored from the artifact store borrows its rows from the
    // mapping: prove the file is intact before the centroid reads them.
    engines_[d].check_backing();
    contributions[d] = score_dataset(datasets[d], engines_[d], query);
  });

  SpellResult result;
  // Dataset ranking by weight.
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    result.dataset_ranking.push_back(DatasetScore{
        d, contributions[d].weight, contributions[d].query_found});
  }
  std::stable_sort(result.dataset_ranking.begin(),
                   result.dataset_ranking.end(),
                   [](const DatasetScore& a, const DatasetScore& b) {
                     return a.weight > b.weight;
                   });

  // Query recognition across the whole compendium.
  std::unordered_set<std::string> query_lower;
  for (const std::string& gene : query) {
    query_lower.insert(str::to_lower(gene));
  }
  std::unordered_set<std::string> recognized;
  for (const auto& dataset : datasets) {
    for (const std::string& gene : query) {
      if (dataset.row_of(gene).has_value()) {
        recognized.insert(str::to_lower(gene));
      }
    }
  }
  result.query_genes_recognized = recognized.size();
  FV_REQUIRE(result.query_genes_recognized > 0,
             "no query gene found in any dataset");

  // Aggregate gene scores: weighted mean correlation across contributing
  // datasets (keyed by systematic name so per-dataset row orders differ).
  struct Accumulator {
    double weighted_sum = 0.0;
    double weight_total = 0.0;
    std::size_t support = 0;
    bool is_query = false;
  };
  std::unordered_map<std::string, Accumulator> accumulators;
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    const auto& contribution = contributions[d];
    if (contribution.weight <= options.min_dataset_weight ||
        contribution.gene_correlation.empty()) {
      continue;
    }
    for (std::size_t row = 0; row < datasets[d].gene_count(); ++row) {
      const std::string& name = datasets[d].gene(row).systematic_name;
      auto& acc = accumulators[name];
      acc.weighted_sum +=
          contribution.weight * contribution.gene_correlation[row];
      acc.weight_total += contribution.weight;
      ++acc.support;
      if (!acc.is_query) {
        acc.is_query =
            query_lower.count(str::to_lower(name)) > 0 ||
            query_lower.count(
                str::to_lower(datasets[d].gene(row).common_name)) > 0;
      }
    }
  }

  for (auto& [name, acc] : accumulators) {
    if (acc.support < options.min_dataset_support) continue;
    if (options.exclude_query_from_ranking && acc.is_query) continue;
    if (acc.weight_total <= 0.0) continue;
    result.gene_ranking.push_back(
        GeneScore{name, acc.weighted_sum / acc.weight_total, acc.support});
  }
  std::stable_sort(result.gene_ranking.begin(), result.gene_ranking.end(),
                   [](const GeneScore& a, const GeneScore& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.gene < b.gene;  // deterministic tie-break
                   });
  return result;
}

SpellResult text_match_baseline(const std::vector<expr::Dataset>& datasets,
                                const std::vector<std::string>& query) {
  FV_REQUIRE(!datasets.empty(), "baseline needs at least one dataset");
  FV_REQUIRE(!query.empty(), "baseline query must contain a gene");

  // Token set of the query genes' annotations.
  std::unordered_set<std::string> query_tokens;
  const auto add_tokens = [](std::unordered_set<std::string>& tokens,
                             const expr::GeneInfo& gene) {
    for (const std::string_view part :
         str::split(gene.description, ' ')) {
      const std::string_view token = str::trim(part);
      if (token.size() >= 3) tokens.insert(str::to_lower(token));
    }
  };
  for (const auto& dataset : datasets) {
    for (const std::string& gene : query) {
      if (const auto row = dataset.row_of(gene); row.has_value()) {
        add_tokens(query_tokens, dataset.gene(*row));
      }
    }
  }

  SpellResult result;
  result.query_genes_recognized = query_tokens.empty() ? 0 : query.size();
  // Score every gene by annotation-token overlap.
  std::unordered_map<std::string, double> scores;
  std::unordered_map<std::string, std::size_t> support;
  for (const auto& dataset : datasets) {
    for (std::size_t row = 0; row < dataset.gene_count(); ++row) {
      const expr::GeneInfo& gene = dataset.gene(row);
      std::unordered_set<std::string> tokens;
      add_tokens(tokens, gene);
      std::size_t overlap = 0;
      for (const std::string& token : tokens) {
        if (query_tokens.count(token) > 0) ++overlap;
      }
      auto& score = scores[gene.systematic_name];
      score = std::max(score, static_cast<double>(overlap));
      ++support[gene.systematic_name];
    }
  }
  for (const auto& [name, score] : scores) {
    result.gene_ranking.push_back(GeneScore{name, score, support[name]});
  }
  std::stable_sort(result.gene_ranking.begin(), result.gene_ranking.end(),
                   [](const GeneScore& a, const GeneScore& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.gene < b.gene;
                   });
  // Dataset ranking: all equal weight (text match has no notion of dataset
  // relevance — precisely the deficiency SPELL addresses).
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    result.dataset_ranking.push_back(DatasetScore{d, 0.0, 0});
  }
  return result;
}

IterativeResult iterative_search(const SpellSearch& search,
                                 const std::vector<std::string>& seed,
                                 std::size_t rounds,
                                 std::size_t expand_per_round,
                                 const SpellOptions& options) {
  FV_REQUIRE(rounds >= 1, "iterative search needs at least one round");
  IterativeResult iterative;
  iterative.expanded_query = seed;
  std::unordered_set<std::string> members;
  for (const std::string& gene : seed) {
    members.insert(str::to_lower(gene));
  }
  for (std::size_t round = 0; round < rounds; ++round) {
    iterative.final_result =
        search.search(iterative.expanded_query, options);
    ++iterative.rounds_run;
    if (round + 1 == rounds) break;
    // Adopt the strongest hits not already in the query.
    std::size_t adopted = 0;
    for (const GeneScore& hit : iterative.final_result.gene_ranking) {
      if (adopted == expand_per_round) break;
      if (!members.insert(str::to_lower(hit.gene)).second) continue;
      iterative.expanded_query.push_back(hit.gene);
      ++adopted;
    }
    if (adopted == 0) break;  // converged: nothing new to adopt
  }
  return iterative;
}

}  // namespace fv::spell
