// The Merged Dataset Interface — the central box of paper Figure 1.
//
// "A dataset interface is needed to manage access to all datasets and
//  present a simple three dimensional array interface that allows analysis
//  routines to easily access the data."
//
// Axes of the logical 3-D array: (dataset, gene, condition), where the gene
// axis is the catalog's unified GeneId space. Cells are optional: a gene may
// not be measured in a dataset, and measured cells may still be missing.
// On top of the array live the Figure-1 analysis routines: find genes by
// name, search annotations, order datasets, export gene lists and merged
// datasets.
//
// The catalog is held by shared_ptr. An interface over datasets it may
// grow (the desktop app's add_dataset) builds its own and rebuilds it; an
// interface over an immutable shared compendium aliases the one catalog
// built for that compendium, so N served sessions hold one copy.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>

#include "core/gene_catalog.hpp"
#include "expr/gmt_io.hpp"

namespace fv::core {

class MergedDatasetInterface {
 public:
  /// Holds a reference; `datasets` must outlive the interface. Builds its
  /// own catalog; call rebuild() after mutating the vector.
  explicit MergedDatasetInterface(const std::vector<expr::Dataset>* datasets);

  /// Aliases `catalog`, which must be non-null and built from `datasets`
  /// (checked by dataset count; fv::InvalidArgument otherwise).
  MergedDatasetInterface(const std::vector<expr::Dataset>* datasets,
                         std::shared_ptr<const GeneCatalog> catalog);

  /// Re-derives the catalog after datasets were added/removed.
  void rebuild();

  const GeneCatalog& catalog() const noexcept { return *catalog_; }
  std::size_t dataset_count() const noexcept { return datasets_->size(); }
  const expr::Dataset& dataset(std::size_t index) const;

  /// Total number of measured cells across the compendium (the paper's
  /// "millions of pieces of information").
  std::size_t total_measurements() const;

  /// The 3-D array accessor. nullopt when the gene is not measured in the
  /// dataset; NaN inside the optional when measured but missing.
  std::optional<float> value(std::size_t dataset, GeneId gene,
                             std::size_t condition) const;

  /// Full expression profile of `gene` in `dataset` (nullopt if absent).
  std::optional<std::span<const float>> profile(std::size_t dataset,
                                                GeneId gene) const;

  /// Per-dataset row of a gene (the horizontal scan of Figure 2).
  std::vector<std::optional<std::size_t>> rows_for(GeneId gene) const;

  // --- Figure-1 analysis routines ----------------------------------------

  /// "Find Genes by name": resolves names (systematic or common) to ids;
  /// unknown names are skipped.
  std::vector<GeneId> find_genes_by_name(
      const std::vector<std::string>& names) const;

  /// Annotation substring search across every dataset's gene annotations.
  std::vector<GeneId> search_annotation(std::string_view query) const;

  /// "Order Datasets": ranks datasets by relevance to a gene set — how many
  /// of the genes they measure and how coherently those genes co-express
  /// (mean pairwise correlation, clamped at 0). Descending relevance.
  std::vector<std::size_t> order_datasets(std::span<const GeneId> genes) const;

  /// "Export Gene List" (GMT entry).
  expr::GeneSet export_gene_list(std::span<const GeneId> genes,
                                 const std::string& set_name,
                                 const std::string& description) const;

  /// "Export Merged Dataset": one row per gene, columns are the union of
  /// all datasets' conditions labeled "dataset::condition"; cells where a
  /// gene is unmeasured are missing.
  expr::Dataset export_merged(std::span<const GeneId> genes,
                              const std::string& name) const;

 private:
  const std::vector<expr::Dataset>* datasets_;
  std::shared_ptr<const GeneCatalog> catalog_;
};

}  // namespace fv::core
