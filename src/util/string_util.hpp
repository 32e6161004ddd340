// Small string helpers shared by the tabular-file parsers (PCL/CDT/OBO/GMT).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fv::str {

/// Splits on a single delimiter; keeps empty fields (tab-separated files use
/// empty cells for missing values). The returned views alias `text`.
std::vector<std::string_view> split(std::string_view text, char delimiter);

/// Like split(), but returns owned strings.
std::vector<std::string> split_copy(std::string_view text, char delimiter);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// ASCII lower-casing (gene symbols and GO tags are ASCII).
std::string to_lower(std::string_view text);

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items,
                 std::string_view separator);

/// Case-insensitive ASCII equality.
bool iequals(std::string_view a, std::string_view b);

/// True when `haystack` contains `needle` ignoring ASCII case.
bool icontains(std::string_view haystack, std::string_view needle);

/// Appends `value` exactly as printf's "%.6g" formats it (std::to_chars in
/// the general format at precision 6 is defined to match it), without
/// printf's locale and format-string overhead.
void append_g6(std::string& out, double value);

/// Strict floating-point parse of the whole field; nullopt on any junk.
std::optional<double> parse_double(std::string_view text);

/// Strict integer parse of the whole field; nullopt on any junk.
std::optional<long long> parse_int(std::string_view text);

}  // namespace fv::str
