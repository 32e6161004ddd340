// Heatmap rasterization for the global view of each ForestView pane: the
// whole dataset downsampled to a strip. (The zoom view draws one fill per
// cell through the canvas, in core/frame.cpp.)
#pragma once

#include <span>
#include <vector>

#include "expr/expression_matrix.hpp"
#include "render/colormap.hpp"

namespace fv::render {

/// The pane's global view: the whole matrix (rows in `row_order`) box-
/// filtered into a row-major width x height block. Each pixel averages the
/// present expression values it covers; pixels covering only missing cells,
/// and every pixel of an empty input, use the missing color.
///
/// Each distinct (row band, column span) box is averaged and colored once;
/// the pixels that repeat it when a strip upsamples are copies. The average
/// sums rows outer, columns inner, in double, so every pixel is bit-identical
/// to averaging and coloring each pixel on its own (the frame golden hashes
/// pin this).
std::vector<Rgb8> global_view_pixels(const expr::ExpressionMatrix& matrix,
                                     std::span<const std::size_t> row_order,
                                     const ExpressionColormap& colormap,
                                     std::size_t width, std::size_t height);

}  // namespace fv::render
