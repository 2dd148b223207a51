// Template of a web page: the full dependency tree of resource slots.
//
// The model is the server-side ground truth a real crawl would converge to;
// concrete loads are realized by `PageInstance`. Resource 0 is always the
// root HTML.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "web/resource.h"

namespace vroom::web {

enum class PageClass : std::uint8_t { Top100, News, Sports, Mixed400 };

const char* page_class_name(PageClass c);

class PageModel {
 public:
  PageModel(std::uint32_t page_id, PageClass cls, std::string first_party);

  std::uint32_t page_id() const { return page_id_; }
  PageClass page_class() const { return cls_; }
  const std::string& first_party() const { return first_party_; }

  // Domains owned by the same organization as the first party (static/img
  // shards); relevant for the incremental-deployment scenario in §6.1.
  const std::vector<std::string>& first_party_group() const {
    return first_party_group_;
  }
  void add_first_party_domain(std::string d) {
    first_party_group_.push_back(std::move(d));
  }
  bool is_first_party_org(const std::string& domain) const;

  // Appends a resource; id must equal the current size. Returns the id.
  std::uint32_t add(Resource r);

  const Resource& resource(std::uint32_t id) const { return resources_[id]; }
  const std::vector<Resource>& resources() const { return resources_; }
  std::size_t size() const { return resources_.size(); }

  // Children of `id` in id (insertion) order.
  const std::vector<std::uint32_t>& children(std::uint32_t id) const {
    return children_[id];
  }

  // The same children in processing order (discovery offset, then id): the
  // first, and each one's next sibling, or kNoResource past the last.
  // add() keeps the order, so a walk needs no sort.
  static constexpr std::uint32_t kNoResource = 0xffffffffu;
  std::uint32_t first_child(std::uint32_t id) const {
    return first_child_[id];
  }
  std::uint32_t next_sibling(std::uint32_t id) const {
    return next_sibling_[id];
  }

  const Resource& root() const { return resources_[0]; }

  // Sum of base sizes by processability (calibration checks).
  std::int64_t total_bytes() const;
  std::int64_t processable_bytes() const;

  // Depth of the dependency subtree rooted at `id` (leaf == 1); Polaris-style
  // chain-length priority.
  int chain_depth(std::uint32_t id) const;

  // True if this resource, or any ancestor, is injected after the load event
  // (post-onload ad units) — i.e. it never loads before onload fires.
  bool in_post_onload_subtree(std::uint32_t id) const;

  // Descendants of document `doc_id`, pruned at embedded-HTML boundaries:
  // iframe documents themselves are included, but nothing below them — the
  // personalization rule of §4.2 (an iframe's own domain advises on its
  // subtree). Returned in processing order (preorder, children by discovery
  // offset).
  std::vector<std::uint32_t> hintable_descendants(std::uint32_t doc_id) const;

  // An upper bound on the length of any realized URL of this page
  // (web::max_url_size over every resource's domain and extension).
  std::size_t max_url_size() const { return max_url_size_; }

 private:
  std::uint32_t page_id_;
  PageClass cls_;
  std::string first_party_;
  std::vector<std::string> first_party_group_;
  std::vector<Resource> resources_;
  std::vector<std::vector<std::uint32_t>> children_;
  // The processing order as sibling links, one pair per resource.
  std::vector<std::uint32_t> first_child_;
  std::vector<std::uint32_t> next_sibling_;
  std::size_t max_url_size_ = 0;
};

}  // namespace vroom::web
