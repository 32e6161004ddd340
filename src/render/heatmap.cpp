#include "render/heatmap.hpp"

#include <algorithm>

#include "stats/descriptive.hpp"
#include "util/error.hpp"

namespace fv::render {

std::vector<Rgb8> global_view_pixels(const expr::ExpressionMatrix& matrix,
                                     std::span<const std::size_t> row_order,
                                     const ExpressionColormap& colormap,
                                     std::size_t width, std::size_t height) {
  FV_REQUIRE(width > 0 && height > 0, "global view needs positive size");
  std::vector<Rgb8> pixels(width * height, colors::kMissing);
  if (row_order.empty() || matrix.cols() == 0) return pixels;
  const std::size_t rows = row_order.size();
  const std::size_t cols = matrix.cols();
  // Box-filter downsampling: output pixel (px, py) covers source rows
  // [py*rows/height, (py+1)*rows/height) and analogous columns.
  for (std::size_t py = 0; py < height; ++py) {
    const std::size_t r0 = py * rows / height;
    const std::size_t r1 = std::max(r0 + 1, (py + 1) * rows / height);
    for (std::size_t px = 0; px < width; ++px) {
      const std::size_t c0 = px * cols / width;
      const std::size_t c1 = std::max(c0 + 1, (px + 1) * cols / width);
      double sum = 0.0;
      std::size_t present = 0;
      for (std::size_t r = r0; r < r1 && r < rows; ++r) {
        const auto values = matrix.row(row_order[r]);
        for (std::size_t c = c0; c < c1 && c < cols; ++c) {
          if (stats::is_missing(values[c])) continue;
          sum += values[c];
          ++present;
        }
      }
      const float average =
          present > 0 ? static_cast<float>(sum / static_cast<double>(present))
                      : stats::missing_value();
      pixels[py * width + px] = colormap.map(average);
    }
  }
  return pixels;
}

}  // namespace fv::render
