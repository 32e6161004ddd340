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
/// filtered into a row-major width x height block, written into `pixels`.
/// Each pixel averages the present expression values it covers; pixels
/// covering only missing cells, and every pixel of an empty input, use the
/// missing color.
///
/// `pixels` is the caller's buffer: it is resized to width x height and
/// every pixel is overwritten, so one buffer serves strip after strip of any
/// size and nothing of its previous contents shows.
///
/// The result depends only on the matrix, `row_order`, the colormap's
/// scheme and contrast, and the size. core::GlobalViewStrips relies on
/// that: a frame keeps each pane's strip and calls this again only when
/// one of those changed.
///
/// Each distinct (row band, column span) box is averaged and colored once;
/// the pixels that repeat it when a strip upsamples are copies. The average
/// sums rows outer, columns inner, in double, so every pixel is bit-identical
/// to averaging and coloring each pixel on its own (the frame golden hashes
/// pin this). A box of one row and one column is colored from its cell's
/// value directly, which is the same bytes: the average of one present
/// value is that value (+0 for -0, which colors the same), and a missing
/// cell stays missing.
void global_view_pixels(const expr::ExpressionMatrix& matrix,
                        std::span<const std::size_t> row_order,
                        const ExpressionColormap& colormap, std::size_t width,
                        std::size_t height, std::vector<Rgb8>& pixels);

}  // namespace fv::render
