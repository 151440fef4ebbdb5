// CSV export for panels and Datasets — the boundary where a downstream
// analyst takes the data into their own tooling (dagitty, DoWhy, R's
// Synth...), as the paper expects real studies to. A campaign's records
// export through ShardedMeasurementStore::ToCsv.
#pragma once

#include <string>

#include "causal/dataset.h"
#include "measure/panel.h"

namespace sisyphus::measure {

/// Wide format: period index column then one column per unit (interpolated
/// median RTT).
std::string PanelToCsv(const Panel& panel);

/// Generic Dataset export, columns in insertion order.
std::string DatasetToCsv(const causal::Dataset& data);

/// Writes text to a file; kInvalidArgument when the file cannot be opened.
core::Status WriteTextFile(const std::string& path, const std::string& text);

}  // namespace sisyphus::measure
