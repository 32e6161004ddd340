#include "expr/pcl_io.hpp"

#include <cmath>
#include <sstream>

#include "stats/descriptive.hpp"
#include "util/string_util.hpp"
#include "util/table_io.hpp"

namespace fv::expr {

namespace {

constexpr std::size_t kMetaColumns = 3;  // ID, NAME, GWEIGHT

std::string file_stem(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  const std::size_t start = slash == std::string::npos ? 0 : slash + 1;
  const std::size_t dot = path.find_last_of('.');
  const std::size_t end =
      (dot == std::string::npos || dot < start) ? path.size() : dot;
  return path.substr(start, end - start);
}

GeneInfo parse_name_cell(std::string_view id, std::string_view name_cell) {
  GeneInfo info;
  info.systematic_name = std::string(fv::str::trim(id));
  const std::size_t bar = name_cell.find('|');
  if (bar == std::string_view::npos) {
    info.common_name = std::string(fv::str::trim(name_cell));
  } else {
    info.common_name = std::string(fv::str::trim(name_cell.substr(0, bar)));
    info.description = std::string(fv::str::trim(name_cell.substr(bar + 1)));
  }
  return info;
}

std::string format_name_cell(const GeneInfo& gene) {
  if (gene.description.empty()) return gene.common_name;
  return gene.common_name + "|" + gene.description;
}

}  // namespace

Dataset parse_pcl(const std::string& content, const std::string& name) {
  std::vector<std::string> lines;
  {
    std::istringstream stream(content);
    std::string line;
    while (std::getline(stream, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      lines.push_back(line);
    }
  }
  if (lines.empty()) throw ParseError("empty PCL file");

  const auto header = str::split(lines[0], '\t');
  if (header.size() < kMetaColumns) {
    throw ParseError("PCL header needs at least ID, NAME, GWEIGHT columns", 1);
  }
  std::vector<std::string> conditions;
  for (std::size_t c = kMetaColumns; c < header.size(); ++c) {
    conditions.emplace_back(str::trim(header[c]));
  }
  const std::size_t cols = conditions.size();

  std::size_t first_data_line = 1;
  if (lines.size() > 1) {
    const auto second = str::split(lines[1], '\t');
    if (!second.empty() && str::iequals(str::trim(second[0]), "EWEIGHT")) {
      first_data_line = 2;  // weights are accepted and ignored
    }
  }

  std::vector<GeneInfo> genes;
  std::vector<std::vector<float>> rows;
  for (std::size_t ln = first_data_line; ln < lines.size(); ++ln) {
    if (str::trim(lines[ln]).empty()) continue;
    const auto fields = str::split(lines[ln], '\t');
    if (fields.size() < kMetaColumns) {
      throw ParseError("data row has fewer than 3 columns", ln + 1);
    }
    if (fields.size() > kMetaColumns + cols) {
      throw ParseError("data row has more value cells than conditions",
                       ln + 1);
    }
    genes.push_back(parse_name_cell(fields[0], fields[1]));
    std::vector<float> row(cols, stats::missing_value());
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t field = kMetaColumns + c;
      if (field >= fields.size()) break;  // short row: trailing missing cells
      const std::string_view cell = str::trim(fields[field]);
      if (cell.empty()) continue;
      const auto value = str::parse_double(cell);
      if (!value.has_value()) {
        throw ParseError("unparseable expression value '" +
                             std::string(cell) + "'",
                         ln + 1);
      }
      row[c] = static_cast<float>(*value);
    }
    rows.push_back(std::move(row));
  }

  ExpressionMatrix matrix(rows.size(), cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < cols; ++c) matrix.set(r, c, rows[r][c]);
  }
  return Dataset(name, std::move(genes), std::move(conditions),
                 std::move(matrix));
}

Dataset read_pcl(const std::string& path) {
  return parse_pcl(read_text_file(path), file_stem(path));
}

std::string format_pcl(const Dataset& dataset) {
  std::string out;
  out.reserve(dataset.gene_count() * (dataset.condition_count() * 8 + 32));
  out += "ID\tNAME\tGWEIGHT";
  for (const std::string& condition : dataset.conditions()) {
    out += '\t';
    out += condition;
  }
  out += '\n';
  out += "EWEIGHT\t\t";
  for (std::size_t c = 0; c < dataset.condition_count(); ++c) out += "\t1";
  out += '\n';
  for (std::size_t r = 0; r < dataset.gene_count(); ++r) {
    const GeneInfo& gene = dataset.gene(r);
    out += gene.systematic_name;
    out += '\t';
    out += format_name_cell(gene);
    out += "\t1";
    const auto row = dataset.values().row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += '\t';
      // An empty cell is a missing value.
      if (!stats::is_missing(row[c])) str::append_g6(out, row[c]);
    }
    out += '\n';
  }
  return out;
}

void write_pcl(const Dataset& dataset, const std::string& path) {
  write_text_file(path, format_pcl(dataset));
}

}  // namespace fv::expr
