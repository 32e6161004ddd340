#include "core/merged.hpp"

#include <algorithm>
#include <span>
#include <unordered_set>
#include <vector>

#include "sim/similarity_engine.hpp"
#include "stats/correlation.hpp"
#include "stats/descriptive.hpp"
#include "util/error.hpp"

namespace fv::core {

MergedDatasetInterface::MergedDatasetInterface(
    const std::vector<expr::Dataset>* datasets)
    : datasets_(datasets) {
  FV_REQUIRE(datasets != nullptr, "merged interface needs datasets");
  rebuild();
}

MergedDatasetInterface::MergedDatasetInterface(
    const std::vector<expr::Dataset>* datasets,
    std::shared_ptr<const GeneCatalog> catalog)
    : datasets_(datasets), catalog_(std::move(catalog)) {
  FV_REQUIRE(datasets != nullptr, "merged interface needs datasets");
  FV_REQUIRE(catalog_ != nullptr, "merged interface needs a catalog");
  FV_REQUIRE(catalog_->dataset_count() == datasets->size(),
             "catalog was built from a different dataset vector");
}

void MergedDatasetInterface::rebuild() {
  catalog_ = std::make_shared<const GeneCatalog>(*datasets_);
}

const expr::Dataset& MergedDatasetInterface::dataset(
    std::size_t index) const {
  FV_REQUIRE(index < datasets_->size(), "dataset index out of range");
  return (*datasets_)[index];
}

std::size_t MergedDatasetInterface::total_measurements() const {
  std::size_t total = 0;
  for (const expr::Dataset& dataset : *datasets_) {
    total += dataset.values().size();
  }
  return total;
}

std::optional<float> MergedDatasetInterface::value(
    std::size_t dataset_index, GeneId gene, std::size_t condition) const {
  const auto row = catalog_->row_in(dataset_index, gene);
  if (!row.has_value()) return std::nullopt;
  const expr::Dataset& ds = dataset(dataset_index);
  FV_REQUIRE(condition < ds.condition_count(), "condition out of range");
  return ds.values().at(*row, condition);
}

std::optional<std::span<const float>> MergedDatasetInterface::profile(
    std::size_t dataset_index, GeneId gene) const {
  const auto row = catalog_->row_in(dataset_index, gene);
  if (!row.has_value()) return std::nullopt;
  return dataset(dataset_index).profile(*row);
}

std::vector<std::optional<std::size_t>> MergedDatasetInterface::rows_for(
    GeneId gene) const {
  std::vector<std::optional<std::size_t>> rows;
  rows.reserve(dataset_count());
  for (std::size_t d = 0; d < dataset_count(); ++d) {
    rows.push_back(catalog_->row_in(d, gene));
  }
  return rows;
}

std::vector<GeneId> MergedDatasetInterface::find_genes_by_name(
    const std::vector<std::string>& names) const {
  std::vector<GeneId> ids;
  std::unordered_set<GeneId> seen;
  for (const std::string& name : names) {
    const auto id = catalog_->find(name);
    if (id.has_value() && seen.insert(*id).second) ids.push_back(*id);
  }
  return ids;
}

std::vector<GeneId> MergedDatasetInterface::search_annotation(
    std::string_view query) const {
  std::vector<GeneId> ids;
  std::unordered_set<GeneId> seen;
  for (std::size_t d = 0; d < dataset_count(); ++d) {
    for (const std::size_t row : dataset(d).search_annotation(query)) {
      const GeneId id = catalog_->id_of_row(d, row);
      if (seen.insert(id).second) ids.push_back(id);
    }
  }
  return ids;
}

std::vector<std::size_t> MergedDatasetInterface::order_datasets(
    std::span<const GeneId> genes) const {
  struct Relevance {
    std::size_t dataset = 0;
    std::size_t measured = 0;
    double coherence = 0.0;
  };
  std::vector<Relevance> relevance(dataset_count());
  for (std::size_t d = 0; d < dataset_count(); ++d) {
    relevance[d].dataset = d;
    std::vector<std::size_t> rows;
    for (const GeneId gene : genes) {
      if (const auto row = catalog_->row_in(d, gene); row.has_value()) {
        rows.push_back(*row);
      }
    }
    relevance[d].measured = rows.size();
    if (rows.size() >= 2) {
      // Same streamed coherence as SPELL's dataset weighting: the shared
      // sub-engine helper runs the measured query rows through blocked
      // kernels instead of scalar per-pair Pearson — no pair matrix
      // materialized.
      std::vector<std::span<const float>> profiles;
      profiles.reserve(rows.size());
      for (const std::size_t row : rows) {
        profiles.push_back(dataset(d).profile(row));
      }
      relevance[d].coherence =
          sim::profile_coherence(profiles, dataset(d).condition_count());
    }
  }
  std::stable_sort(relevance.begin(), relevance.end(),
                   [](const Relevance& a, const Relevance& b) {
                     if (a.coherence != b.coherence) {
                       return a.coherence > b.coherence;
                     }
                     return a.measured > b.measured;
                   });
  std::vector<std::size_t> order;
  order.reserve(relevance.size());
  for (const Relevance& r : relevance) order.push_back(r.dataset);
  return order;
}

expr::GeneSet MergedDatasetInterface::export_gene_list(
    std::span<const GeneId> genes, const std::string& set_name,
    const std::string& description) const {
  expr::GeneSet set;
  set.name = set_name;
  set.description = description;
  for (const GeneId gene : genes) set.genes.push_back(catalog_->name(gene));
  return set;
}

expr::Dataset MergedDatasetInterface::export_merged(
    std::span<const GeneId> genes, const std::string& name) const {
  // Column layout: all conditions of dataset 0, then dataset 1, ...
  std::vector<std::string> conditions;
  std::vector<std::size_t> offsets;
  for (std::size_t d = 0; d < dataset_count(); ++d) {
    offsets.push_back(conditions.size());
    for (const std::string& condition : dataset(d).conditions()) {
      conditions.push_back(dataset(d).name() + "::" + condition);
    }
  }
  expr::ExpressionMatrix matrix(genes.size(), conditions.size());
  std::vector<expr::GeneInfo> gene_infos;
  gene_infos.reserve(genes.size());
  for (std::size_t g = 0; g < genes.size(); ++g) {
    // Use the richest available GeneInfo (first dataset measuring it).
    expr::GeneInfo info;
    info.systematic_name = catalog_->name(genes[g]);
    for (std::size_t d = 0; d < dataset_count(); ++d) {
      const auto row = catalog_->row_in(d, genes[g]);
      if (!row.has_value()) continue;
      if (info.common_name.empty()) {
        info = dataset(d).gene(*row);
      }
      const auto profile_span = dataset(d).profile(*row);
      for (std::size_t c = 0; c < profile_span.size(); ++c) {
        matrix.set(g, offsets[d] + c, profile_span[c]);
      }
    }
    gene_infos.push_back(std::move(info));
  }
  return expr::Dataset(name, std::move(gene_infos), std::move(conditions),
                       std::move(matrix));
}

}  // namespace fv::core
