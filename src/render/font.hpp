// Tiny 5x7 bitmap font for gene labels, condition headers and legends.
//
// Glyphs cover digits, uppercase letters and the punctuation that appears in
// gene/condition identifiers. Lowercase input is rendered with the uppercase
// shapes (TreeView labels are case-insensitive anyway); characters without a
// glyph render as a hollow box so missing coverage is visible, not silent.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace fv::render {

inline constexpr int kGlyphWidth = 5;
inline constexpr int kGlyphHeight = 7;
/// Horizontal advance between characters (glyph + 1px spacing).
inline constexpr int kGlyphAdvance = kGlyphWidth + 1;

/// Rows of the glyph for `c`, one byte per row, low 5 bits used,
/// bit 4 = leftmost pixel. Unknown characters return the hollow box.
const std::array<std::uint8_t, 7>& glyph_rows(char c);

/// True when the character has a real glyph (not the fallback box).
bool has_glyph(char c);

/// Pixel width of a string (no trailing spacing).
int text_width(std::string_view text);

}  // namespace fv::render
