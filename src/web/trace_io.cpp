#include "web/trace_io.h"

#include <charconv>
#include <cmath>
#include <map>
#include <sstream>
#include <type_traits>
#include <vector>

#include "web/device.h"

namespace vroom::web {
namespace {

const char* via_name(DiscoveryVia v) {
  switch (v) {
    case DiscoveryVia::HtmlTag: return "tag";
    case DiscoveryVia::CssRef: return "css";
    case DiscoveryVia::JsExec: return "js";
  }
  return "?";
}

std::optional<DiscoveryVia> via_from(const std::string& s) {
  if (s == "tag") return DiscoveryVia::HtmlTag;
  if (s == "css") return DiscoveryVia::CssRef;
  if (s == "js") return DiscoveryVia::JsExec;
  return std::nullopt;
}

std::optional<ResourceType> type_from(const std::string& s) {
  for (ResourceType t :
       {ResourceType::Html, ResourceType::Css, ResourceType::Js,
        ResourceType::Image, ResourceType::Font, ResourceType::Media,
        ResourceType::Other}) {
    if (s == type_name(t)) return t;
  }
  return std::nullopt;
}

std::optional<Volatility> volatility_from(const std::string& s) {
  for (Volatility v :
       {Volatility::Stable, Volatility::Daily, Volatility::Hourly,
        Volatility::PerLoad, Volatility::Personalized}) {
    if (s == volatility_name(v)) return v;
  }
  return std::nullopt;
}

std::optional<PageClass> class_from(const std::string& s) {
  for (PageClass c : {PageClass::Top100, PageClass::News, PageClass::Sports,
                      PageClass::Mixed400}) {
    if (s == page_class_name(c)) return c;
  }
  return std::nullopt;
}

using Fields = std::map<std::string, std::string>;

// Splits "key=value key=value ..." tokens of one line into `out`. A token
// without '=' or a repeated key makes the record ambiguous, so both are
// errors (returned as the message) rather than skipped or overwritten.
std::optional<std::string> parse_fields(std::istringstream& line,
                                        Fields& out) {
  std::string token;
  while (line >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return "token '" + token + "' is not key=value";
    }
    if (!out.emplace(token.substr(0, eq), token.substr(eq + 1)).second) {
      return "repeated key '" + token.substr(0, eq) + "'";
    }
  }
  return std::nullopt;
}

// Reads field `key` into `out`; false, leaving `out` as it was, when the
// field is absent or malformed. Both branches follow harness/env.cpp's
// strict contract: the whole field must be the number. The float path used
// std::stod, which accepted trailing garbage ("0.5x"), leading whitespace,
// hex, and inf/nan.
template <typename T>
bool get_num(const Fields& f, const char* key, T& out) {
  auto it = f.find(key);
  if (it == f.end()) return false;
  const std::string& s = it->second;
  std::conditional_t<std::is_floating_point_v<T>, double, T> v{};
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return false;
  }
  out = static_cast<T>(v);
  return true;
}

// An optional field: absent leaves `out` as it was; present, it must parse
// whole.
template <typename T>
bool get_optional(const Fields& f, const char* key, T& out) {
  return f.count(key) == 0 || get_num(f, key, out);
}

}  // namespace

void write_trace(std::ostream& os, const PageModel& page) {
  os.precision(17);  // doubles must round-trip exactly
  os << "# vroom-sim page trace v1\n";
  os << "page id=" << page.page_id() << " class="
     << page_class_name(page.page_class())
     << " first_party=" << page.first_party();
  if (page.first_party_group().size() > 1) {
    os << " shards=";
    for (std::size_t i = 1; i < page.first_party_group().size(); ++i) {
      if (i > 1) os << ',';
      os << page.first_party_group()[i];
    }
  }
  os << '\n';
  for (const Resource& r : page.resources()) {
    os << "res id=" << r.id << " parent=" << r.parent
       << " type=" << type_name(r.type) << " via=" << via_name(r.via)
       << " off=" << r.discovery_offset << " size=" << r.base_size
       << " domain=" << r.domain << " vol=" << volatility_name(r.volatility)
       << " period=" << r.rotation_period << " phase=" << r.rotation_phase;
    if (r.max_age > 0) os << " max_age=" << r.max_age;
    if (r.visual_weight > 0) os << " weight=" << r.visual_weight;
    if (r.device_axis >= 0) {
      os << " device_axis=" << static_cast<int>(r.device_axis);
    }
    if (r.url_page_override != Resource::kNoPageOverride) {
      os << " page_override=" << r.url_page_override;
    }
    std::string flags;
    auto flag = [&](bool v, const char* name) {
      if (!v) return;
      if (!flags.empty()) flags += ',';
      flags += name;
    };
    flag(r.is_iframe_doc, "iframe_doc");
    flag(r.in_iframe, "in_iframe");
    flag(r.async, "async");
    flag(r.blocks_parser, "blocks_parser");
    flag(r.cacheable, "cacheable");
    flag(r.above_fold, "above_fold");
    flag(r.post_onload, "post_onload");
    flag(!r.blocks_onload, "beacon");
    flag(r.first_party_personalized, "fp_personalized");
    if (!flags.empty()) os << " flags=" << flags;
    os << '\n';
  }
}

std::string page_to_trace(const PageModel& page) {
  std::ostringstream os;
  write_trace(os, page);
  return os.str();
}

std::optional<PageModel> page_from_trace(const std::string& text,
                                         std::string* error) {
  auto fail = [&](const std::string& msg) -> std::optional<PageModel> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };

  std::istringstream in(text);
  std::string line;
  std::optional<PageModel> page;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    const std::string at = " (line " + std::to_string(line_no) + ")";
    Fields fields;
    if (auto bad = parse_fields(ls, fields)) {
      return fail(kind + ": " + *bad + at);
    }

    if (kind == "page") {
      // A second header would silently drop the page read so far.
      if (page) return fail("page: second page header" + at);
      std::uint32_t id = 0;
      if (!get_num(fields, "id", id)) return fail("page: missing id" + at);
      auto cls = class_from(fields.count("class") ? fields.at("class") : "");
      if (!cls) return fail("page: bad class" + at);
      auto fp = fields.find("first_party");
      if (fp == fields.end()) return fail("page: missing first_party" + at);
      page.emplace(id, *cls, fp->second);
      if (auto sh = fields.find("shards"); sh != fields.end()) {
        std::istringstream ss(sh->second);
        std::string dom;
        while (std::getline(ss, dom, ',')) page->add_first_party_domain(dom);
      }
      continue;
    }
    if (kind != "res") return fail("unknown record '" + kind + "'" + at);
    if (!page) return fail("res before page header" + at);

    Resource r;
    if (!get_num(fields, "id", r.id)) return fail("res: missing id" + at);
    if (!get_num(fields, "parent", r.parent)) {
      return fail("res: missing parent" + at);
    }
    auto type = type_from(fields.count("type") ? fields.at("type") : "");
    if (!type) return fail("res: bad type" + at);
    r.type = *type;
    auto via = via_from(fields.count("via") ? fields.at("via") : "");
    if (!via) return fail("res: bad via" + at);
    r.via = *via;
    if (!get_num(fields, "off", r.discovery_offset) ||
        r.discovery_offset < 0 || r.discovery_offset > 1) {
      return fail("res: bad off" + at);
    }
    if (!get_num(fields, "size", r.base_size) || r.base_size <= 0) {
      return fail("res: bad size" + at);
    }
    auto dom = fields.find("domain");
    if (dom == fields.end()) return fail("res: missing domain" + at);
    // A realized URL is "<domain>/p...": a '/' in the domain would make it
    // parse back to other fields.
    if (dom->second.find('/') != std::string::npos) {
      return fail("res: '/' in domain" + at);
    }
    r.domain = dom->second;
    auto vol = volatility_from(fields.count("vol") ? fields.at("vol") : "");
    if (!vol) return fail("res: bad vol" + at);
    r.volatility = *vol;
    const auto bad = [&](const char* field) {
      return fail(std::string("res: bad ") + field + at);
    };
    if (!get_optional(fields, "period", r.rotation_period)) {
      return bad("period");
    }
    if (!get_optional(fields, "phase", r.rotation_phase)) return bad("phase");
    if (!get_optional(fields, "max_age", r.max_age)) return bad("max_age");
    if (!get_optional(fields, "weight", r.visual_weight)) {
      return bad("weight");
    }
    int axis = r.device_axis;
    if (!get_optional(fields, "device_axis", axis) || axis < -1 ||
        axis >= kNumDeviceAxes) {
      return bad("device_axis");
    }
    r.device_axis = static_cast<std::int8_t>(axis);
    if (!get_optional(fields, "page_override", r.url_page_override)) {
      return bad("page_override");
    }
    if (auto fl = fields.find("flags"); fl != fields.end()) {
      std::istringstream fs(fl->second);
      std::string flag;
      while (std::getline(fs, flag, ',')) {
        if (flag == "iframe_doc") r.is_iframe_doc = true;
        else if (flag == "in_iframe") r.in_iframe = true;
        else if (flag == "async") r.async = true;
        else if (flag == "blocks_parser") r.blocks_parser = true;
        else if (flag == "cacheable") r.cacheable = true;
        else if (flag == "above_fold") r.above_fold = true;
        else if (flag == "post_onload") r.post_onload = true;
        else if (flag == "beacon") r.blocks_onload = false;
        else if (flag == "fp_personalized") r.first_party_personalized = true;
        else return fail("res: unknown flag '" + flag + "'" + at);
      }
    }
    if (r.id != page->size()) return fail("res: ids must be dense" + at);
    // Resource 0 is the root; every other resource hangs below an earlier
    // one, so none is an orphan the load would never fetch.
    const auto id = static_cast<std::int32_t>(r.id);
    if (id == 0 ? r.parent != -1 : r.parent < 0 || r.parent >= id) {
      return fail("res: parent must be -1 for resource 0, else an earlier id" +
                  at);
    }
    if (r.volatility != Volatility::PerLoad && r.rotation_period <= 0) {
      return fail("res: rotating resource needs period" + at);
    }
    page->add(std::move(r));
  }
  if (!page) return fail("empty trace");
  if (page->size() == 0) return fail("trace has no resources");
  if (page->root().type != ResourceType::Html) {
    return fail("resource 0 must be the root HTML");
  }
  return page;
}

}  // namespace vroom::web
