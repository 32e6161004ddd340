// Expression-value color mapping.
//
// Microarray log-ratios render on the classic red/green scale (red =
// induced, green = repressed, black = unchanged); the paper notes that
// "expression level colors can be adjusted independently for datasets", so
// the map carries a per-dataset contrast (saturation) setting and scheme.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "render/color.hpp"
#include "stats/descriptive.hpp"

namespace fv::render {

enum class ColorScheme {
  kRedGreen,    ///< TreeView default: green(-) / black(0) / red(+)
  kBlueYellow,  ///< colorblind-safe alternative: blue(-) / black / yellow(+)
  kGrayscale,   ///< black(-) .. white(+), for print
};

class ExpressionColormap {
 public:
  /// `contrast` is the |value| that saturates the scale; must be > 0.
  explicit ExpressionColormap(ColorScheme scheme = ColorScheme::kRedGreen,
                              double contrast = 2.0);

  /// Color for an expression log-ratio; missing (NaN) maps to the neutral
  /// missing-value gray.
  ///
  /// Every scheme is lerp(kBlack, c, m) for a color c whose channels are 0
  /// or 255, so each channel is either 0 or the one level m * 255: a byte
  /// mask per sign picks the channels, without a branch on the sign.
  /// `0.0 + m * 255.0` rounds the same whether or not it is contracted to
  /// an FMA, so every build computes the bytes lerp() does.
  Rgb8 map(float value) const {
    if (stats::is_missing(value)) return colors::kMissing;
    const double t =
        std::clamp(static_cast<double>(value) / contrast_, -1.0, 1.0);
    const double m =
        scheme_ == ColorScheme::kGrayscale ? (t + 1.0) / 2.0 : std::abs(t);
    const std::uint32_t level = static_cast<std::uint8_t>(0.0 + m * 255.0);
    const std::uint32_t positive = 0u - static_cast<std::uint32_t>(t >= 0.0);
    const std::uint32_t rgb = level * 0x010101u &
                              ((positive_mask_ & positive) |
                               (negative_mask_ & ~positive));
    return Rgb8{static_cast<std::uint8_t>(rgb),
                static_cast<std::uint8_t>(rgb >> 8),
                static_cast<std::uint8_t>(rgb >> 16)};
  }

  ColorScheme scheme() const noexcept { return scheme_; }
  double contrast() const noexcept { return contrast_; }

  /// Returns a copy with a different contrast (per-dataset adjustment).
  ExpressionColormap with_contrast(double contrast) const;

 private:
  ColorScheme scheme_;
  double contrast_;
  /// 0xFF in each byte (r lowest) whose channel the scheme's color for a
  /// value >= 0 (positive) or < 0 (negative) lights.
  std::uint32_t positive_mask_ = 0;
  std::uint32_t negative_mask_ = 0;
};

}  // namespace fv::render
