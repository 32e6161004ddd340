#include "expr/cdt_io.hpp"

#include <cmath>
#include <filesystem>
#include <sstream>
#include <unordered_map>

#include "stats/descriptive.hpp"
#include "util/string_util.hpp"
#include "util/table_io.hpp"

namespace fv::expr {

namespace {

std::string gene_leaf_name(std::size_t row) {
  return "GENE" + std::to_string(row) + "X";
}

std::string array_leaf_name(std::size_t col) {
  return "ARRY" + std::to_string(col) + "X";
}

std::string node_name(std::size_t merge_index) {
  return "NODE" + std::to_string(merge_index + 1) + "X";
}

std::string format_name_cell(const GeneInfo& gene) {
  if (gene.description.empty()) return gene.common_name;
  return gene.common_name + "|" + gene.description;
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

// Serializes merges as "NODEkX child child similarity" rows, children named
// after the given leaf-name function.
template <typename LeafNameFn>
std::string format_tree(const HierTree& tree, LeafNameFn leaf_name) {
  std::string out;
  const std::size_t leaves = tree.leaf_count();
  for (std::size_t m = 0; m + 1 < leaves; ++m) {
    const int id = static_cast<int>(leaves + m);
    const HierTreeNode& node = tree.node(id);
    const auto child_name = [&](int child) {
      return tree.is_leaf(child)
                 ? leaf_name(static_cast<std::size_t>(child))
                 : node_name(static_cast<std::size_t>(child) - leaves);
    };
    out += node_name(m) + '\t' + child_name(node.left) + '\t' +
           child_name(node.right) + '\t';
    fv::str::append_g6(out, node.similarity);
    out += '\n';
  }
  return out;
}

// Parses tree text; `resolve_leaf` maps a leaf token (e.g. "GENE7X") to a
// leaf index, returning npos for unknown tokens.
HierTree parse_tree(const std::string& text, std::size_t leaf_count,
                    const std::unordered_map<std::string, std::size_t>&
                        leaf_ids) {
  HierTree tree(leaf_count);
  std::unordered_map<std::string, int> node_ids;
  std::istringstream stream(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (fv::str::trim(line).empty()) continue;
    const auto fields = fv::str::split(line, '\t');
    if (fields.size() < 4) {
      throw ParseError("tree row needs NODE, two children, similarity",
                       line_no);
    }
    const auto resolve = [&](std::string_view token) -> int {
      const std::string key(fv::str::trim(token));
      if (const auto it = leaf_ids.find(key); it != leaf_ids.end()) {
        return static_cast<int>(it->second);
      }
      if (const auto it = node_ids.find(key); it != node_ids.end()) {
        return it->second;
      }
      throw ParseError("unknown tree child '" + key + "'", line_no);
    };
    const int left = resolve(fields[1]);
    const int right = resolve(fields[2]);
    const auto similarity = fv::str::parse_double(fields[3]);
    if (!similarity.has_value()) {
      throw ParseError("unparseable similarity", line_no);
    }
    const int id = tree.add_node(left, right, *similarity);
    node_ids.emplace(std::string(fv::str::trim(fields[0])), id);
  }
  if (!tree.is_complete()) {
    throw ParseError("tree file does not describe a complete dendrogram");
  }
  return tree;
}

}  // namespace

CdtBundle format_cdt(const Dataset& dataset) {
  CdtBundle bundle;
  const bool has_gene_tree = dataset.gene_tree().has_value();
  const bool has_array_tree = dataset.array_tree().has_value();

  std::string& out = bundle.cdt;
  out.reserve(dataset.gene_count() * (dataset.condition_count() * 8 + 48));
  if (has_gene_tree) out += "GID\t";
  out += "ID\tNAME\tGWEIGHT";
  for (const std::string& condition : dataset.conditions()) {
    out += '\t';
    out += condition;
  }
  out += '\n';

  const std::size_t meta_cols = has_gene_tree ? 4 : 3;
  if (has_array_tree) {
    out += "AID";
    for (std::size_t i = 1; i < meta_cols; ++i) out += '\t';
    for (std::size_t c = 0; c < dataset.condition_count(); ++c) {
      out += '\t';
      out += array_leaf_name(c);
    }
    out += '\n';
  }
  out += "EWEIGHT";
  for (std::size_t i = 1; i < meta_cols; ++i) out += '\t';
  for (std::size_t c = 0; c < dataset.condition_count(); ++c) out += "\t1";
  out += '\n';

  for (const std::size_t r : dataset.display_order()) {
    if (has_gene_tree) {
      out += gene_leaf_name(r);
      out += '\t';
    }
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

  if (has_gene_tree) {
    bundle.gtr = format_tree(*dataset.gene_tree(), gene_leaf_name);
  }
  if (has_array_tree) {
    bundle.atr = format_tree(*dataset.array_tree(), array_leaf_name);
  }
  return bundle;
}

Dataset parse_cdt(const CdtBundle& bundle, const std::string& name) {
  std::vector<std::string> lines;
  {
    std::istringstream stream(bundle.cdt);
    std::string line;
    while (std::getline(stream, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      lines.push_back(line);
    }
  }
  if (lines.empty()) throw ParseError("empty CDT file");

  const auto header = str::split(lines[0], '\t');
  if (header.empty()) throw ParseError("missing CDT header", 1);
  const bool has_gid = str::iequals(str::trim(header[0]), "GID");
  const std::size_t meta_cols = has_gid ? 4 : 3;
  if (header.size() < meta_cols) {
    throw ParseError("CDT header too short", 1);
  }
  std::vector<std::string> conditions;
  for (std::size_t c = meta_cols; c < header.size(); ++c) {
    conditions.emplace_back(str::trim(header[c]));
  }
  const std::size_t cols = conditions.size();

  // Optional AID row then optional EWEIGHT row.
  std::size_t next_line = 1;
  std::vector<std::string> array_leaf_tokens;
  if (next_line < lines.size()) {
    const auto fields = str::split(lines[next_line], '\t');
    if (!fields.empty() && str::iequals(str::trim(fields[0]), "AID")) {
      for (std::size_t c = meta_cols; c < fields.size(); ++c) {
        array_leaf_tokens.emplace_back(str::trim(fields[c]));
      }
      if (array_leaf_tokens.size() != cols) {
        throw ParseError("AID row width disagrees with header",
                         next_line + 1);
      }
      ++next_line;
    }
  }
  if (next_line < lines.size()) {
    const auto fields = str::split(lines[next_line], '\t');
    if (!fields.empty() && str::iequals(str::trim(fields[0]), "EWEIGHT")) {
      ++next_line;
    }
  }

  std::vector<GeneInfo> genes;
  std::vector<std::vector<float>> rows;
  std::unordered_map<std::string, std::size_t> gene_leaf_ids;
  for (std::size_t ln = next_line; ln < lines.size(); ++ln) {
    if (str::trim(lines[ln]).empty()) continue;
    const auto fields = str::split(lines[ln], '\t');
    if (fields.size() < meta_cols) {
      throw ParseError("CDT data row too short", ln + 1);
    }
    if (fields.size() > meta_cols + cols) {
      throw ParseError("CDT data row too long", ln + 1);
    }
    const std::size_t row_index = rows.size();
    if (has_gid) {
      gene_leaf_ids.emplace(std::string(str::trim(fields[0])), row_index);
    }
    genes.push_back(
        parse_name_cell(fields[meta_cols - 3], fields[meta_cols - 2]));
    std::vector<float> row(cols, stats::missing_value());
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t field = meta_cols + c;
      if (field >= fields.size()) break;
      const std::string_view cell = str::trim(fields[field]);
      if (cell.empty()) continue;
      const auto value = str::parse_double(cell);
      if (!value.has_value()) {
        throw ParseError("unparseable expression value", ln + 1);
      }
      row[c] = static_cast<float>(*value);
    }
    rows.push_back(std::move(row));
  }

  ExpressionMatrix matrix(rows.size(), cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < cols; ++c) matrix.set(r, c, rows[r][c]);
  }
  Dataset dataset(name, std::move(genes), std::move(conditions),
                  std::move(matrix));

  if (!bundle.gtr.empty()) {
    if (!has_gid) {
      throw ParseError("GTR supplied but CDT has no GID column");
    }
    dataset.attach_gene_tree(
        parse_tree(bundle.gtr, dataset.gene_count(), gene_leaf_ids));
  }
  if (!bundle.atr.empty()) {
    std::unordered_map<std::string, std::size_t> array_leaf_ids;
    if (!array_leaf_tokens.empty()) {
      for (std::size_t c = 0; c < array_leaf_tokens.size(); ++c) {
        array_leaf_ids.emplace(array_leaf_tokens[c], c);
      }
    } else {
      for (std::size_t c = 0; c < dataset.condition_count(); ++c) {
        array_leaf_ids.emplace(array_leaf_name(c), c);
      }
    }
    dataset.attach_array_tree(
        parse_tree(bundle.atr, dataset.condition_count(), array_leaf_ids));
  }
  return dataset;
}

void write_cdt(const Dataset& dataset, const std::string& base_path) {
  const CdtBundle bundle = format_cdt(dataset);
  write_text_file(base_path + ".cdt", bundle.cdt);
  if (!bundle.gtr.empty()) write_text_file(base_path + ".gtr", bundle.gtr);
  if (!bundle.atr.empty()) write_text_file(base_path + ".atr", bundle.atr);
}

Dataset read_cdt(const std::string& base_path) {
  CdtBundle bundle;
  bundle.cdt = read_text_file(base_path + ".cdt");
  namespace fs = std::filesystem;
  if (fs::exists(base_path + ".gtr")) {
    bundle.gtr = read_text_file(base_path + ".gtr");
  }
  if (fs::exists(base_path + ".atr")) {
    bundle.atr = read_text_file(base_path + ".atr");
  }
  const fs::path p(base_path);
  return parse_cdt(bundle, p.filename().string());
}

}  // namespace fv::expr
