#include "obs/manifest.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "obs/metrics.h"
#include "trace/trace.h"

namespace vroom::obs {

namespace {

// Writes `text` to `path`; warns on stderr and returns false on I/O failure.
bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!f) {
    std::fprintf(stderr, "[obs] warning: could not write \"%s\"\n",
                 path.c_str());
    return false;
  }
  return true;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct Parser {
  const std::string& text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\n' || text[pos] == '\r' ||
            text[pos] == '\t')) {
      ++pos;
    }
  }

  bool expect(char c) {
    skip_ws();
    if (pos >= text.size() || text[pos] != c) return false;
    ++pos;
    return true;
  }

  bool peek(char c) {
    skip_ws();
    return pos < text.size() && text[pos] == c;
  }

  // Only whitespace is left.
  bool at_end() {
    skip_ws();
    return pos == text.size();
  }

  // Parses a JSON string (cursor on the opening quote).
  bool string(std::string* out) {
    skip_ws();
    if (pos >= text.size() || text[pos] != '"') return false;
    ++pos;
    out->clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos >= text.size()) return false;
      const char esc = text[pos++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos + 4 > text.size()) return false;
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            value <<= 4;
            if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              value |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              value |= static_cast<unsigned>(h - 'A' + 10);
            else
              return false;
          }
          // Manifests only ever escape control bytes; reject the rest.
          if (value > 0x7f) return false;
          out->push_back(static_cast<char>(value));
          break;
        }
        default: return false;
      }
    }
    return false;
  }
};

}  // namespace

void Manifest::set(const std::string& key, std::string value) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  entries_.emplace_back(key, std::move(value));
}

void Manifest::set(const std::string& key, std::int64_t value) {
  set(key, std::to_string(value));
}

void Manifest::set(const std::string& key, std::uint64_t value) {
  set(key, std::to_string(value));
}

const std::string* Manifest::find(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Manifest::to_json() const {
  std::string out = "{\n";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    out += "  \"" + trace::Recorder::json_escape(entries_[i].first) +
           "\": \"" + trace::Recorder::json_escape(entries_[i].second) +
           "\"";
    if (i + 1 < entries_.size()) out += ",";
    out += "\n";
  }
  out += "}\n";
  return out;
}

std::optional<Manifest> Manifest::from_json(const std::string& json) {
  Parser p{json};
  if (!p.expect('{')) return std::nullopt;
  Manifest m;
  if (!p.peek('}')) {
    while (true) {
      std::string key, value;
      if (!p.string(&key)) return std::nullopt;
      if (!p.expect(':')) return std::nullopt;
      if (!p.string(&value)) return std::nullopt;
      // set() keeps keys unique, so a repeated key is not a manifest.
      if (m.find(key) != nullptr) return std::nullopt;
      m.entries_.emplace_back(std::move(key), std::move(value));
      if (!p.peek(',')) break;
      p.expect(',');
    }
  }
  if (!p.expect('}') || !p.at_end()) return std::nullopt;
  return m;
}

std::optional<Manifest> Manifest::read(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  std::ostringstream buf;
  buf << f.rdbuf();
  return from_json(buf.str());
}

bool export_run(const std::string& dir, Manifest manifest) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  // A failed mkdir surfaces as the write failures below.
  const Registry& reg = registry();
  bool ok = write_file(dir + "/metrics.csv", reg.to_csv(Plane::Virtual));
  ok &= write_file(dir + "/metrics.prom", reg.to_exposition(Plane::Virtual));
  ok &= write_file(dir + "/wall_sidecar.prom", reg.to_exposition(Plane::Wall));
  manifest.set("digest.metrics_prom", hex(reg.digest(Plane::Virtual)));
  manifest.set("digest.wall_sidecar_prom", hex(reg.digest(Plane::Wall)));
  ok &= write_file(dir + "/manifest.json", manifest.to_json());
  return ok;
}

}  // namespace vroom::obs
