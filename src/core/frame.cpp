#include "core/frame.hpp"

#include <algorithm>

#include "render/dendrogram.hpp"
#include "render/font.hpp"
#include "render/heatmap.hpp"
#include "util/error.hpp"

namespace fv::core {

namespace {

using render::Canvas;
using render::Rgb8;

/// Background shade distinguishing pane chrome from data.
constexpr Rgb8 kPaneBackground{24, 24, 24};
constexpr Rgb8 kHeaderText{230, 230, 230};
constexpr Rgb8 kTreeColor{170, 170, 170};
constexpr Rgb8 kGapRow{40, 40, 48};  ///< "gene not measured here"

/// Selection tick marks on the global view (the paper: other datasets
/// "highlight their position in the global view with a line").
void draw_selection_marks(Canvas& canvas, const Session& session,
                          std::size_t dataset_index,
                          const layout::Rect& rect) {
  if (session.selection().empty()) return;
  const auto order = session.dataset(dataset_index).display_order();
  if (order.empty()) return;
  // Position of each display row in the strip.
  std::vector<std::size_t> position_of_row(
      session.dataset(dataset_index).gene_count(), 0);
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    position_of_row[order[pos]] = pos;
  }
  const auto& catalog = session.merged().catalog();
  for (const GeneId gene : session.selection().ordered()) {
    const auto row = catalog.row_in(dataset_index, gene);
    if (!row.has_value()) continue;
    const long y = rect.y + static_cast<long>(position_of_row[*row] *
                                              static_cast<std::size_t>(
                                                  rect.height) /
                                              order.size());
    canvas.hline(rect.x, rect.right() - 1, y, render::colors::kHighlight);
  }
}

struct PaneRenderStats {
  std::size_t zoom_rows = 0;
  std::size_t cells = 0;
  bool strip_computed = false;
};

PaneRenderStats render_pane(const Session& session, Canvas& canvas,
                            std::size_t dataset_index,
                            const layout::Rect& pane_rect,
                            const layout::PaneConfig& pane_config,
                            GlobalViewStrips& strips) {
  PaneRenderStats stats;
  const expr::Dataset& dataset = session.dataset(dataset_index);
  const DisplayPrefs& prefs = session.prefs(dataset_index);
  const render::ExpressionColormap colormap(prefs.scheme, prefs.contrast);
  const auto parts = layout::layout_pane(pane_rect, pane_config);

  canvas.fill_rect(pane_rect.x, pane_rect.y, pane_rect.width,
                   pane_rect.height, kPaneBackground);

  if (!parts.header.empty()) {
    canvas.text(parts.header.x + 2, parts.header.y + 2, dataset.name(),
                kHeaderText);
  }

  if (!parts.global_view.empty()) {
    // The whole-genome global view goes out as one image, so the wall
    // command stream carries one command per pane instead of one fill per
    // run of same-colored pixels.
    const auto& rect = parts.global_view;
    canvas.image(rect.x, rect.y, rect.width, rect.height,
                 strips.strip(session, dataset_index, colormap, rect.width,
                              rect.height, stats.strip_computed));
    draw_selection_marks(canvas, session, dataset_index, rect);
  }

  if (!parts.gene_tree.empty() && dataset.gene_tree().has_value() &&
      parts.gene_tree.width >= 2 && parts.gene_tree.height >= 2) {
    render::draw_gene_dendrogram(canvas, *dataset.gene_tree(),
                                 parts.gene_tree.x, parts.gene_tree.y,
                                 parts.gene_tree.width,
                                 parts.gene_tree.height, kTreeColor);
  }

  if (!parts.array_tree.empty() && dataset.array_tree().has_value() &&
      parts.array_tree.width >= 2 && parts.array_tree.height >= 2) {
    render::draw_array_dendrogram(canvas, *dataset.array_tree(),
                                  parts.array_tree.x, parts.array_tree.y,
                                  parts.array_tree.width,
                                  parts.array_tree.height, kTreeColor);
  }

  // Zoom view: the selection's rows under the sync controller's mode.
  if (!parts.zoom_view.empty() && !session.selection().empty()) {
    const auto rows =
        session.sync().zoom_rows(dataset_index, session.selection());
    const long cell_h = std::max(1, prefs.zoom_cell_height);
    const long cell_w = std::max<long>(
        1, parts.zoom_view.width /
               std::max<long>(1,
                              static_cast<long>(dataset.condition_count())));
    const std::size_t first = session.sync().scroll();
    const auto fit = static_cast<std::size_t>(parts.zoom_view.height / cell_h);
    for (std::size_t i = first; i < rows.size() && i - first < fit; ++i) {
      const long y =
          parts.zoom_view.y + static_cast<long>(i - first) * cell_h;
      ++stats.zoom_rows;
      if (!rows[i].row.has_value()) {
        // Gene not measured in this dataset: aligned gap row.
        canvas.fill_rect(parts.zoom_view.x, y, parts.zoom_view.width, cell_h,
                         kGapRow);
        continue;
      }
      const auto values = dataset.values().row(*rows[i].row);
      for (std::size_t c = 0; c < values.size(); ++c) {
        canvas.fill_rect(parts.zoom_view.x + static_cast<long>(c) * cell_w,
                         y, cell_w, cell_h, colormap.map(values[c]));
        ++stats.cells;
      }
      if (prefs.show_annotations && !parts.annotations.empty() &&
          cell_h >= render::kGlyphHeight) {
        canvas.text(parts.annotations.x + 2, y,
                    dataset.gene(*rows[i].row).label(), kHeaderText);
      }
    }
  }
  return stats;
}

}  // namespace

render::SharedPixels GlobalViewStrips::strip(
    const Session& session, std::size_t dataset_index,
    const render::ExpressionColormap& colormap, long width, long height,
    bool& computed) {
  FV_REQUIRE(dataset_index < session.dataset_count(),
             "dataset index out of range");
  FV_REQUIRE(width > 0 && height > 0, "a strip needs a positive size");
  strips_.resize(std::max(strips_.size(), session.dataset_count()));
  Strip& held = strips_[dataset_index];
  computed = held.pixels == nullptr || held.scheme != colormap.scheme() ||
             held.contrast != colormap.contrast() || held.width != width ||
             held.height != height;
  if (computed) {
    // A fresh buffer, sized exactly: a recording may still share the old
    // strip, whose pixels must not change.
    auto pixels = std::make_shared<std::vector<Rgb8>>();
    const expr::Dataset& dataset = session.dataset(dataset_index);
    render::global_view_pixels(dataset.values(), dataset.display_order(),
                               colormap, static_cast<std::size_t>(width),
                               static_cast<std::size_t>(height), *pixels);
    held.pixels = std::move(pixels);
    held.scheme = colormap.scheme();
    held.contrast = colormap.contrast();
    held.width = width;
    held.height = height;
  }
  held.drawn = true;
  return render::SharedPixels{*held.pixels, held.pixels};
}

void GlobalViewStrips::finish_frame() noexcept {
  for (Strip& s : strips_) {
    if (!s.drawn) s.pixels.reset();
    s.drawn = false;
  }
}

std::size_t GlobalViewStrips::size() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(strips_.begin(), strips_.end(),
                    [](const Strip& s) { return s.pixels != nullptr; }));
}

std::size_t GlobalViewStrips::bytes() const noexcept {
  std::size_t total = 0;
  for (const Strip& s : strips_) {
    if (s.pixels != nullptr) total += s.pixels->capacity() * sizeof(Rgb8);
  }
  return total;
}

FrameInfo render_frame(const Session& session, render::Canvas& canvas,
                       const FrameConfig& config, GlobalViewStrips& strips) {
  FV_REQUIRE(config.width > 0 && config.height > 0,
             "frame needs a positive size");
  FrameInfo info;
  canvas.fill_rect(0, 0, config.width, config.height,
                   render::colors::kBlack);
  const auto panes = layout::split_vertical_panes(
      config.width, config.height, session.pane_order().size(),
      config.pane_gap);
  for (std::size_t p = 0; p < panes.size(); ++p) {
    const std::size_t dataset_index = session.pane_order()[p];
    const auto stats = render_pane(session, canvas, dataset_index, panes[p],
                                   config.pane, strips);
    ++info.panes_rendered;
    info.zoom_rows_rendered += stats.zoom_rows;
    info.cells_rendered += stats.cells;
    info.strips_computed += stats.strip_computed ? 1 : 0;
  }
  strips.finish_frame();
  return info;
}

}  // namespace fv::core
