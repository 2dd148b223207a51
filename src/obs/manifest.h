// Run manifest (DESIGN.md §12): the machine-readable provenance record of a
// run — which knobs, strategies, and code version produced a number.
//
// A Manifest is an *ordered* flat map of string keys to string values
// ("env.jobs" -> "4", "cell.0.fingerprint" -> "...", "digest.metrics_prom"
// -> hex). Flat and ordered on purpose: serialization is a one-screen JSON
// object whose byte layout is a pure function of the entries, and the
// round-trip (to_json -> from_json) is exact, so a manifest can be diffed
// against a later reproduction attempt key by key.
//
// The fleet writes `manifest.json` and the deployment scenario
// `deploy_manifest.json` into the run's VROOM_OUT_DIR, beside its tables,
// through export_run; the entries include every harness::Env knob, per-cell
// strategy fingerprints, and FNV digests of the exported metric snapshots —
// enough to reconstruct (or refuse to trust) any committed figure. The
// kind-specific entries are assembled at those call sites: this library is
// plain data and stays free of harness dependencies.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace vroom::obs {

class Manifest {
 public:
  // Appends (or overwrites, preserving position) `key` with `value`.
  void set(const std::string& key, std::string value);
  void set(const std::string& key, std::int64_t value);
  void set(const std::string& key, std::uint64_t value);

  // First value stored under `key`, or nullptr.
  const std::string* find(const std::string& key) const;

  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

  // One flat JSON object, entries in insertion order, fully escaped.
  std::string to_json() const;
  // Parses to_json() output (a flat string->string object). Returns
  // nullopt on malformed input, including bytes after the closing brace and
  // a repeated key. Exact round-trip: from_json(to_json()) reproduces the
  // entries byte for byte.
  static std::optional<Manifest> from_json(const std::string& json);

  // Parses the file at `path` (written by export_run); nullopt if it is
  // missing or malformed.
  static std::optional<Manifest> read(const std::string& path);

  bool operator==(const Manifest& other) const {
    return entries_ == other.entries_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

// Writes a run's artifacts into `dir` (created as needed): the global
// registry's export — metrics.csv and metrics.prom (virtual plane),
// wall_sidecar.prom (wall plane) — and `manifest`, with the FNV digests of
// both expositions appended as digest.metrics_prom and
// digest.wall_sidecar_prom, as <dir>/<manifest_file>. Returns false and
// warns on stderr on I/O failure.
bool export_run(const std::string& dir, const std::string& manifest_file,
                Manifest manifest);

}  // namespace vroom::obs
