#include "core/session.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace fv::core {

Session::Session(std::vector<expr::Dataset> datasets)
    : datasets_(std::move(datasets)),
      merged_(&datasets_),
      sync_(&merged_) {
  FV_REQUIRE(!datasets_.empty(), "session needs at least one dataset");
  pane_order_.resize(datasets_.size());
  for (std::size_t i = 0; i < pane_order_.size(); ++i) pane_order_[i] = i;
  prefs_.resize(datasets_.size());
}

Session::Session(std::shared_ptr<const std::vector<expr::Dataset>> shared,
                 std::shared_ptr<const GeneCatalog> catalog)
    : shared_(std::move(shared)),
      merged_(shared_.get(), std::move(catalog)),
      sync_(&merged_) {
  FV_REQUIRE(shared_ != nullptr && !shared_->empty(),
             "shared session needs a non-empty dataset vector");
  pane_order_.resize(shared_->size());
  for (std::size_t i = 0; i < pane_order_.size(); ++i) pane_order_[i] = i;
  prefs_.resize(shared_->size());
}

const expr::Dataset& Session::dataset(std::size_t index) const {
  FV_REQUIRE(index < data().size(), "dataset index out of range");
  return data()[index];
}

DisplayPrefs& Session::prefs(std::size_t dataset) {
  FV_REQUIRE(dataset < prefs_.size(), "dataset index out of range");
  return prefs_[dataset];
}

const DisplayPrefs& Session::prefs(std::size_t dataset) const {
  FV_REQUIRE(dataset < prefs_.size(), "dataset index out of range");
  return prefs_[dataset];
}

void Session::set_prefs_all(const DisplayPrefs& prefs) {
  for (DisplayPrefs& p : prefs_) p = prefs;
  log("set_prefs_all");
}

void Session::select_region(std::size_t dataset, std::size_t first,
                            std::size_t count) {
  FV_REQUIRE(dataset < data().size(), "dataset index out of range");
  const auto order = data()[dataset].display_order();
  FV_REQUIRE(first < order.size(), "selection start beyond dataset");
  const std::size_t end = std::min(first + count, order.size());
  std::vector<GeneId> genes;
  genes.reserve(end - first);
  for (std::size_t i = first; i < end; ++i) {
    genes.push_back(merged_.catalog().id_of_row(dataset, order[i]));
  }
  selection_.set(std::move(genes));
  sync_.scroll_to(0);
  log("select_region dataset=" + data()[dataset].name() + " first=" +
      std::to_string(first) + " count=" + std::to_string(end - first));
}

std::size_t Session::select_by_names(const std::vector<std::string>& names) {
  auto genes = merged_.find_genes_by_name(names);
  const std::size_t found = genes.size();
  selection_.set(std::move(genes));
  sync_.scroll_to(0);
  log("select_by_names requested=" + std::to_string(names.size()) +
      " found=" + std::to_string(found));
  return found;
}

std::size_t Session::select_by_annotation(std::string_view query) {
  auto genes = merged_.search_annotation(query);
  const std::size_t found = genes.size();
  selection_.set(std::move(genes));
  sync_.scroll_to(0);
  log("select_by_annotation query='" + std::string(query) + "' found=" +
      std::to_string(found));
  return found;
}

void Session::select_from_analysis(std::vector<GeneId> genes,
                                   std::string_view analysis_name) {
  selection_.set(std::move(genes));
  sync_.scroll_to(0);
  log("select_from_analysis source=" + std::string(analysis_name) +
      " genes=" + std::to_string(selection_.size()));
}

void Session::clear_selection() {
  selection_.clear();
  log("clear_selection");
}

void Session::toggle_sync() {
  sync_.set_synchronized(!sync_.synchronized());
  log(sync_.synchronized() ? "sync_on" : "sync_off");
}

void Session::scroll_to(std::size_t first) {
  sync_.scroll_to(first);
  log("scroll_to " + std::to_string(first));
}

void Session::order_panes(const std::vector<std::size_t>& order) {
  FV_REQUIRE(order.size() == data().size(),
             "pane order must cover every dataset exactly once");
  std::vector<bool> seen(data().size(), false);
  for (const std::size_t d : order) {
    FV_REQUIRE(d < data().size() && !seen[d],
               "pane order must be a permutation");
    seen[d] = true;
  }
  pane_order_ = order;
  log("order_panes");
}

expr::GeneSet Session::export_selection(const std::string& set_name) const {
  return merged_.export_gene_list(selection_.ordered(), set_name,
                                  "exported from ForestView");
}

expr::Dataset Session::export_merged_selection(
    const std::string& name) const {
  return merged_.export_merged(selection_.ordered(), name);
}

void Session::add_dataset(expr::Dataset dataset) {
  FV_REQUIRE(shared_ == nullptr,
             "a shared-compendium session is read-only; add_dataset is "
             "only valid on a session that owns its datasets");
  // Preserve the selection by name across the catalog rebuild.
  std::vector<std::string> selected_names;
  selected_names.reserve(selection_.size());
  for (const GeneId gene : selection_.ordered()) {
    selected_names.push_back(merged_.catalog().name(gene));
  }
  const std::string name = dataset.name();
  datasets_.push_back(std::move(dataset));
  merged_.rebuild();
  pane_order_.push_back(datasets_.size() - 1);
  prefs_.push_back(prefs_.empty() ? DisplayPrefs{} : prefs_.front());
  selection_.set(merged_.find_genes_by_name(selected_names));
  log("add_dataset " + name);
}

void Session::log(std::string entry) { log_.push_back(std::move(entry)); }

}  // namespace fv::core
