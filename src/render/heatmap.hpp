// Heatmap rasterization: the zoom view (one cell per measurement) and the
// global view (whole dataset downsampled to a strip) of each ForestView pane.
#pragma once

#include <span>
#include <vector>

#include "expr/expression_matrix.hpp"
#include "render/colormap.hpp"
#include "render/framebuffer.hpp"

namespace fv::render {

/// Renders rows `row_order` of `matrix` as a cell grid with top-left corner
/// (x, y); each cell is cell_w x cell_h pixels. Rows/columns that would fall
/// outside the framebuffer are clipped.
void render_heatmap(Framebuffer& fb, const expr::ExpressionMatrix& matrix,
                    std::span<const std::size_t> row_order,
                    const ExpressionColormap& colormap, long x, long y,
                    int cell_w, int cell_h);

/// The pane's global view: the whole matrix (rows in `row_order`) box-
/// filtered into a row-major width x height block. Each pixel averages the
/// present expression values it covers; pixels covering only missing cells,
/// and every pixel of an empty input, use the missing color.
std::vector<Rgb8> global_view_pixels(const expr::ExpressionMatrix& matrix,
                                     std::span<const std::size_t> row_order,
                                     const ExpressionColormap& colormap,
                                     std::size_t width, std::size_t height);

}  // namespace fv::render
