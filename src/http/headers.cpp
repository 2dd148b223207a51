#include "http/headers.h"

#include <sstream>

namespace vroom::http {
namespace {

constexpr const char* kWireNames[] = {"Link", "x-semi-important",
                                      "x-unimportant"};

// "<url>; rel=preload" for Link, "<url>" for the custom headers.
void append_entry(std::ostringstream& os, HintPriority p,
                  const std::string& url, bool first) {
  if (!first) os << ", ";
  os << '<' << url << '>';
  if (p == HintPriority::Preload) os << "; rel=preload";
}

}  // namespace

std::int64_t HintSet::header_bytes() const {
  // Each listed URL costs roughly its length plus separators; our synthetic
  // URLs are ~45-60 bytes.
  return static_cast<std::int64_t>(hints.size()) * 60;
}

std::vector<const Hint*> HintSet::by_priority(HintPriority p) const {
  std::vector<const Hint*> out;
  for (const Hint& h : hints) {
    if (h.priority == p) out.push_back(&h);
  }
  return out;
}

std::string serialize_hints(const HintSet& hints) {
  std::ostringstream os;
  bool any = false;
  for (HintPriority p : {HintPriority::Preload, HintPriority::SemiImportant,
                         HintPriority::Unimportant}) {
    auto entries = hints.by_priority(p);
    if (entries.empty()) continue;
    if (any) os << '\n';
    any = true;
    os << kWireNames[static_cast<int>(p)] << ": ";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      append_entry(os, p, entries[i]->url, i == 0);
    }
  }
  if (any) {
    os << "\nAccess-Control-Expose-Headers: Link, x-semi-important, "
          "x-unimportant";
  }
  return os.str();
}

bool parse_hints(const std::string& wire, HintSet& out) {
  out.hints.clear();
  std::istringstream in(wire);
  std::string line;
  int order[3] = {0, 0, 0};
  while (std::getline(in, line)) {
    const std::size_t colon = line.find(": ");
    if (colon == std::string::npos) {
      if (line.empty()) continue;
      out.hints.clear();
      return false;
    }
    const std::string name = line.substr(0, colon);
    if (name == "Access-Control-Expose-Headers") continue;
    HintPriority prio;
    if (name == "Link") {
      prio = HintPriority::Preload;
    } else if (name == "x-semi-important") {
      prio = HintPriority::SemiImportant;
    } else if (name == "x-unimportant") {
      prio = HintPriority::Unimportant;
    } else {
      out.hints.clear();
      return false;
    }
    std::size_t pos = colon + 2;
    while (pos < line.size()) {
      const std::size_t lt = line.find('<', pos);
      if (lt == std::string::npos) break;
      const std::size_t gt = line.find('>', lt);
      if (gt == std::string::npos) {
        out.hints.clear();
        return false;
      }
      out.add(line.substr(lt + 1, gt - lt - 1), prio,
              order[static_cast<int>(prio)]++);
      pos = gt + 1;
    }
  }
  return true;
}

}  // namespace vroom::http
