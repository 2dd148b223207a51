// Page-template serialization: a line-oriented text format so users can
// persist generated pages, edit them, or import dependency trees derived
// from real HAR/WProf captures and replay them through the simulator.
//
// Format (one record per line, '#' comments, whitespace-separated
// key=value pairs, each key at most once per record; the one header line
// comes first and carries page-level fields):
//
//   page id=7 class=news first_party=news7.com shards=static.news7.com
//   res id=0 parent=-1 type=html via=tag off=0 size=91234 domain=news7.com vol=hourly period=1800000000 phase=0 flags=above_fold
//   res id=1 parent=0 type=css via=tag off=0.1 size=5000 domain=news7.com vol=stable period=864000000000 phase=0
//
// Every field of web::Resource round-trips.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "web/page_model.h"

namespace vroom::web {

// Serializes a page template; deterministic output, stable field order.
std::string page_to_trace(const PageModel& page);
void write_trace(std::ostream& os, const PageModel& page);

// Parses a trace produced by page_to_trace (or hand-written in the same
// format). Returns nullopt and fills `error` on malformed input.
std::optional<PageModel> page_from_trace(const std::string& text,
                                         std::string* error = nullptr);

}  // namespace vroom::web
