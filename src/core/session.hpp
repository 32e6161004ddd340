// ForestView session: datasets + merged interface + selection + sync +
// per-dataset display preferences + the headless user-interface operations
// of paper Figure 1's "User Interface" box.
//
// A session either owns its datasets and builds its own gene catalog (the
// desktop app, which may add_dataset), or aliases a shared immutable
// compendium AND the one catalog built for it. A shared session therefore
// holds only per-session state: selection, sync, prefs, pane order and
// event log. Creating or freeing one builds or frees no catalog.
//
// Every operation appends to an event log; the integrated-workflow bench
// compares ForestView's operation counts against the baseline workflow the
// paper describes ("launch over a dozen independent instances and
// continually cut and paste selections between instances").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/merged.hpp"
#include "core/sync.hpp"
#include "render/colormap.hpp"

namespace fv::core {

/// Per-dataset display settings (paper: "the scaling of the global and zoom
/// view, the annotation information and the expression level colors can be
/// adjusted independently for datasets or applied to all datasets").
struct DisplayPrefs {
  render::ColorScheme scheme = render::ColorScheme::kRedGreen;
  double contrast = 2.0;
  bool show_annotations = true;
  int zoom_cell_height = 8;  ///< pixel height of a zoom-view row
};

class Session {
 public:
  explicit Session(std::vector<expr::Dataset> datasets);

  /// Shared-compendium session: the serving layer runs N concurrent
  /// sessions over ONE immutable dataset vector (typically reconstructed
  /// from a mapped engine artifact) instead of copying it per session,
  /// and over ONE catalog built from it instead of one per session.
  /// `catalog` must be non-null with the same dataset_count() as `shared`
  /// (fv::InvalidArgument otherwise). Per-session state (selection, sync,
  /// prefs, pane order, event log) is private as always; the datasets and
  /// catalog are aliased. add_dataset() is rejected on a shared session —
  /// the compendium is read-only by construction, which is also what makes
  /// concurrent read-only access from many sessions race-free.
  Session(std::shared_ptr<const std::vector<expr::Dataset>> shared,
          std::shared_ptr<const GeneCatalog> catalog);

  // Not copyable/movable: the merged interface holds a stable pointer to
  // the dataset vector.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Whether this session aliases a shared read-only compendium.
  bool shares_datasets() const noexcept { return shared_ != nullptr; }

  std::size_t dataset_count() const noexcept { return data().size(); }
  const expr::Dataset& dataset(std::size_t index) const;
  /// Whole dataset list, as consumed by analysis plug-ins (SPELL).
  const std::vector<expr::Dataset>& datasets() const noexcept {
    return data();
  }
  const MergedDatasetInterface& merged() const noexcept { return merged_; }
  const SelectionModel& selection() const noexcept { return selection_; }
  const SyncController& sync() const noexcept { return sync_; }

  /// Display order of panes (indices into datasets).
  const std::vector<std::size_t>& pane_order() const noexcept {
    return pane_order_;
  }

  DisplayPrefs& prefs(std::size_t dataset);
  const DisplayPrefs& prefs(std::size_t dataset) const;
  /// Applies one preference set to every dataset.
  void set_prefs_all(const DisplayPrefs& prefs);

  // --- user operations (each is logged) -----------------------------------

  /// Mouse selection in one pane's global view: genes at display-order
  /// positions [first, first+count) of that dataset. The other panes
  /// "search for occurrences of those genes" automatically via the catalog.
  void select_region(std::size_t dataset, std::size_t first,
                     std::size_t count);

  /// Selection by explicit name list; returns #genes found.
  std::size_t select_by_names(const std::vector<std::string>& names);

  /// Selection by annotation substring search; returns #genes found.
  std::size_t select_by_annotation(std::string_view query);

  /// Selection supplied by an analysis program (paper: "the most adaptive
  /// method is to provide selection information from an analysis
  /// application").
  void select_from_analysis(std::vector<GeneId> genes,
                            std::string_view analysis_name);

  void clear_selection();
  void toggle_sync();
  void scroll_to(std::size_t first);

  /// Reorders panes (e.g. by SPELL dataset relevance).
  void order_panes(const std::vector<std::size_t>& order);

  /// "Export Gene List".
  expr::GeneSet export_selection(const std::string& set_name) const;

  /// "Export Merged Dataset" restricted to the selection.
  expr::Dataset export_merged_selection(const std::string& name) const;

  /// Loads a new dataset into the session (paper: the exported subset "can
  /// also be loaded into the ForestView display as a dataset"). The
  /// selection is preserved by gene name across the catalog rebuild.
  /// Rejected (fv::InvalidArgument) on a shared-compendium session.
  void add_dataset(expr::Dataset dataset);

  // --- event log -----------------------------------------------------------

  const std::vector<std::string>& event_log() const noexcept { return log_; }
  std::size_t operation_count() const noexcept { return log_.size(); }

 private:
  void log(std::string entry);

  /// The dataset vector this session reads: its own copy, or the shared
  /// immutable compendium.
  const std::vector<expr::Dataset>& data() const noexcept {
    return shared_ != nullptr ? *shared_ : datasets_;
  }

  std::vector<expr::Dataset> datasets_;  ///< empty in shared mode
  std::shared_ptr<const std::vector<expr::Dataset>> shared_;
  MergedDatasetInterface merged_;
  SelectionModel selection_;
  SyncController sync_;
  std::vector<std::size_t> pane_order_;
  std::vector<DisplayPrefs> prefs_;
  std::vector<std::string> log_;
};

}  // namespace fv::core
