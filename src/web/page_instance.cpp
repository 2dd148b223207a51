#include "web/page_instance.h"

#include <cassert>

#include "sim/random.h"

namespace vroom::web {
namespace {

// Low bits of the realized version encode the device variant so that the
// same slot yields distinct URLs per device bucket.
constexpr std::uint64_t kDeviceVariantSpace = 8;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return sim::derive_seed(a, "mix") ^ sim::derive_seed(b, "mix2");
}

// What a slot's realized URL says besides its domain, id and extension.
struct RealizedFields {
  std::uint32_t page_id;
  std::uint64_t version;
  std::uint32_t user;
};

RealizedFields realized_fields(const PageModel& model, const Resource& r,
                               const LoadIdentity& id) {
  return {r.effective_page_id(model.page_id()), realized_version(r, id),
          r.volatility == Volatility::Personalized ? id.user : 0};
}

}  // namespace

std::uint64_t rotation_version(const Resource& r, sim::Time wall_time) {
  switch (r.volatility) {
    case Volatility::Stable:
    case Volatility::Daily:
    case Volatility::Hourly:
    case Volatility::Personalized: {
      assert(r.rotation_period > 0);
      const sim::Time t = wall_time + r.rotation_phase;
      return static_cast<std::uint64_t>(t / r.rotation_period);
    }
    case Volatility::PerLoad:
      return 0;  // caller folds the nonce in
  }
  return 0;
}

std::int64_t realized_size(const Resource& r, std::uint64_t version) {
  // +/-15 % deterministic jitter so rotated content has a slightly different
  // weight, as real story images do.
  const std::uint64_t h = mix(version, r.id);
  const double jitter = 0.85 + 0.30 * (static_cast<double>(h % 10007) / 10007.0);
  std::int64_t s = static_cast<std::int64_t>(r.base_size * jitter);
  return s < 64 ? 64 : s;
}

std::uint64_t realized_version(const Resource& r, const LoadIdentity& id) {
  std::uint64_t version;
  if (r.volatility == Volatility::PerLoad) {
    // Unpredictable across back-to-back loads: version derives from the
    // load nonce, so equal nonces (the same load) agree and different
    // nonces differ.
    version = sim::derive_seed(id.nonce, "perload") % 1000000007ULL;
    version = mix(version, r.id) % 1000000007ULL;
  } else {
    version = rotation_version(r, id.wall_time);
  }
  std::uint64_t variant = 0;
  if (r.device_axis >= 0) {
    variant = static_cast<std::uint64_t>(id.device.axis_value(
                  static_cast<DeviceAxis>(r.device_axis))) + 1;
  }
  return version * kDeviceVariantSpace + variant;
}

std::string realize_url(const PageModel& model, const Resource& r,
                        const LoadIdentity& id) {
  const RealizedFields f = realized_fields(model, r, id);
  return make_url(r.domain, f.page_id, r.id, f.version, f.user,
                  type_ext(r.type));
}

PageInstance::PageInstance(const PageModel& model, const LoadIdentity& id,
                           sim::Arena* arena)
    : model_(&model),
      id_(id),
      interner_(arena),
      resources_(interner_.memory()),
      template_by_url_(interner_.memory()) {
  resources_.reserve(model.size());
  template_by_url_.reserve(model.size());
  interner_.reserve(model.size());
  // Each URL is written into one buffer that fits the longest, then
  // interned with the fields it was written from.
  std::pmr::vector<char> buf(model.max_url_size(), interner_.memory());
  for (const Resource& r : model.resources()) {
    // A domain with a '/' would not parse back to the fields.
    assert(r.domain.find('/') == std::string::npos);
    const RealizedFields f = realized_fields(model, r, id);
    const std::string_view url = make_url(buf.data(), r.domain, f.page_id,
                                          r.id, f.version, f.user,
                                          type_ext(r.type));
    InstanceResource ir;
    ir.template_id = r.id;
    ir.url_id =
        interner_.url_id(url, r.type, f.page_id, r.id, f.version, f.user);
    // The interner's arena copy is the one stored string per URL; the
    // instance keeps a view of it.
    ir.url = interner_.url(ir.url_id);
    ir.size = realized_size(r, f.version);
    // Realized URLs are distinct per slot, so pre-interning in build order
    // assigns resource i the UrlId i.
    assert(ir.url_id == template_by_url_.size());
    template_by_url_.push_back(r.id);
    resources_.push_back(ir);
  }
}

std::optional<std::uint32_t> PageInstance::find_by_url(
    std::string_view url) const {
  const UrlId id = interner_.find_url(url);
  if (id == kInvalidId) return std::nullopt;
  return template_of(id);
}

std::vector<std::string> PageInstance::url_set() const {
  std::vector<std::string> out;
  out.reserve(resources_.size());
  for (const auto& r : resources_) out.emplace_back(r.url);
  return out;
}

namespace {

// The size of slot `resource_id` at `version`, if a URL with these fields
// names a slot of `model`.
std::optional<std::int64_t> slot_size(const PageModel& model,
                                      std::string_view domain,
                                      std::uint32_t page_id,
                                      std::uint32_t resource_id,
                                      std::uint64_t version) {
  if (resource_id >= model.size()) return std::nullopt;
  const Resource& r = model.resource(resource_id);
  if (page_id != r.effective_page_id(model.page_id())) return std::nullopt;
  if (r.domain != domain) return std::nullopt;
  return realized_size(r, version);
}

}  // namespace

std::optional<std::int64_t> servable_size(const PageModel& model,
                                          std::string_view url) {
  auto parsed = parse_url(url);
  if (!parsed) return std::nullopt;
  return slot_size(model, parsed->domain, parsed->page_id,
                   parsed->resource_id, parsed->version);
}

std::optional<std::int64_t> servable_size(const PageModel& model,
                                          const Interner& interner, UrlId id) {
  const UrlInfo& info = interner.info(id);
  if (!info.parse_ok) return std::nullopt;
  return slot_size(model, interner.domain(info.domain), info.page_id,
                   info.resource_id, info.version);
}

}  // namespace vroom::web
