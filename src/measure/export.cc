#include "measure/export.h"

#include <cstdio>
#include <fstream>

#include "core/logging.h"

namespace sisyphus::measure {

namespace {

std::string Quote(const std::string& field) {
  if (field.find(',') == std::string::npos &&
      field.find('"') == std::string::npos) {
    return field;
  }
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string FormatDouble(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

}  // namespace

std::string PanelToCsv(const Panel& panel) {
  std::string out = "period";
  for (const auto& unit : panel.units) {
    out += ',';
    out += Quote(unit.unit);
  }
  out += "\n";
  const std::size_t periods =
      panel.units.empty() ? 0 : panel.units.front().values.size();
  for (std::size_t t = 0; t < periods; ++t) {
    out += std::to_string(t);
    for (const auto& unit : panel.units) {
      out += ',';
      out += FormatDouble(unit.values[t]);
    }
    out += "\n";
  }
  return out;
}

std::string DatasetToCsv(const causal::Dataset& data) {
  std::string out;
  const auto& names = data.ColumnNames();
  for (std::size_t c = 0; c < names.size(); ++c) {
    if (c > 0) out += ",";
    out += Quote(names[c]);
  }
  out += "\n";
  for (std::size_t r = 0; r < data.rows(); ++r) {
    for (std::size_t c = 0; c < names.size(); ++c) {
      if (c > 0) out += ",";
      out += FormatDouble(data.ColumnOrDie(names[c])[r]);
    }
    out += "\n";
  }
  return out;
}

core::Status WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    (SISYPHUS_LOG(kError) << "export open failed").With("path", path);
    return core::Error(core::ErrorCode::kInvalidArgument,
                       "WriteTextFile: cannot open '" + path + "'");
  }
  file << text;
  if (!file) {
    (SISYPHUS_LOG(kError) << "export write failed").With("path", path);
    return core::Error(core::ErrorCode::kInvalidArgument,
                       "WriteTextFile: write failed for '" + path + "'");
  }
  (SISYPHUS_LOG(kDebug) << "export written")
      .With("path", path)
      .With("bytes", text.size());
  return core::Status::Ok();
}

}  // namespace sisyphus::measure
