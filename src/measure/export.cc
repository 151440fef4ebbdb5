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

namespace {

std::string RecordToCsvRow(const RoutedRecord& record) {
  std::string out;
  out += std::to_string(record.id.value()) + ",";
  out += std::to_string(record.time.minutes()) + ",";
  out += std::to_string(record.unit.asn().value()) + ",";
  out += Quote(record.unit.city()) + ",";
  out += ToString(record.intent);
  out += ",";
  out += netsim::ToString(record.address_family);
  out += ",";
  out += FormatDouble(record.rtt_ms) + ",";
  out += FormatDouble(record.loss_rate) + ",";
  out += FormatDouble(record.throughput_mbps) + ",";
  out += std::to_string(record.attempts) + ",";
  std::string path;
  for (std::size_t i = 0; i < record.asn_path.size(); ++i) {
    if (i > 0) path += " ";
    path += std::to_string(record.asn_path[i].value());
  }
  out += Quote(path) + ",";
  out += Quote(record.traceroute.ToText());
  return out;
}

constexpr const char* kRecordCsvHeader =
    "id,time_minutes,asn,city,intent,address_family,rtt_ms,loss_rate,"
    "throughput_mbps,attempts,asn_path,traceroute";

}  // namespace

std::string StoreToCsv(const MeasurementStore& store) {
  std::string out = std::string(kRecordCsvHeader) + "\n";
  for (const auto& record : store.records()) {
    out += RecordToCsvRow(record) + "\n";
  }
  return out;
}

std::string QuarantineToCsv(const MeasurementStore& store) {
  std::string out = std::string(kRecordCsvHeader) + ",reason\n";
  for (const auto& entry : store.quarantine()) {
    out += RecordToCsvRow(entry.record) + "," + Quote(entry.reason) + "\n";
  }
  return out;
}

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
