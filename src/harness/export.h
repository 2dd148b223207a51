// Machine-readable result export (CSV) so figure data can be plotted with
// external tooling. Benches honour VROOM_OUT_DIR: when set, each printed
// table is also written as `<dir>/<slug>.csv`, beside the metric export and
// manifest each sweep writes there (obs::export_run).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "browser/metrics.h"
#include "harness/report.h"

namespace vroom::harness {

// "Figure 13 (a) Page Load Time" -> "figure_13_a_page_load_time".
std::string slugify(const std::string& title);

// One column per series, rows are the raw per-page values (padded rows are
// omitted when series lengths differ). Returns the CSV text. Doubles are
// printed with max_digits10 so every value round-trips exactly.
std::string series_to_csv(const std::vector<Series>& series);

// Writes CSV, creating parent directories as needed (mkdir -p semantics).
// Returns false and warns on stderr on I/O failure.
bool write_csv(const std::string& path, const std::string& csv);

// If VROOM_OUT_DIR is set, writes `series` as <dir>/<slugify(title)>.csv.
void maybe_export(const std::string& title,
                  const std::vector<Series>& series);

// Trace-counter totals (e.g. CorpusResult::counter_totals()) as two-column
// name,value CSV.
std::string counters_to_csv(
    const std::vector<std::pair<std::string, std::int64_t>>& counters);

// If VROOM_OUT_DIR is set and `counters` is non-empty, writes it as
// <dir>/<slugify(title)>.csv.
void maybe_export_counters(
    const std::string& title,
    const std::vector<std::pair<std::string, std::int64_t>>& counters);

// Per-resource timing dump of one load (waterfall analysis in spreadsheets).
std::string timings_to_csv(const browser::LoadResult& result);

}  // namespace vroom::harness
