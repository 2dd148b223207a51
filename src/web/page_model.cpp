#include "web/page_model.h"

#include <algorithm>
#include <cassert>

#include "web/url.h"

namespace vroom::web {

const char* page_class_name(PageClass c) {
  switch (c) {
    case PageClass::Top100: return "top100";
    case PageClass::News: return "news";
    case PageClass::Sports: return "sports";
    case PageClass::Mixed400: return "mixed400";
  }
  return "?";
}

PageModel::PageModel(std::uint32_t page_id, PageClass cls,
                     std::string first_party)
    : page_id_(page_id), cls_(cls), first_party_(std::move(first_party)) {
  first_party_group_.push_back(first_party_);
}

bool PageModel::is_first_party_org(const std::string& domain) const {
  return std::find(first_party_group_.begin(), first_party_group_.end(),
                   domain) != first_party_group_.end();
}

std::uint32_t PageModel::add(Resource r) {
  const auto id = static_cast<std::uint32_t>(resources_.size());
  assert(r.id == id);
  assert(r.parent < static_cast<std::int32_t>(id));
  max_url_size_ =
      std::max(max_url_size_, web::max_url_size(r.domain, type_ext(r.type)));
  resources_.push_back(std::move(r));
  children_.emplace_back();
  first_child_.push_back(kNoResource);
  next_sibling_.push_back(kNoResource);
  const std::int32_t parent = resources_.back().parent;
  if (parent >= 0) {
    children_[static_cast<std::size_t>(parent)].push_back(id);
    // Every sibling has a smaller id, so the new child goes after the
    // siblings whose offset is not greater than its own.
    const double offset = resources_.back().discovery_offset;
    std::uint32_t* link = &first_child_[static_cast<std::size_t>(parent)];
    while (*link != kNoResource &&
           resources_[*link].discovery_offset <= offset) {
      link = &next_sibling_[*link];
    }
    next_sibling_[id] = *link;
    *link = id;
  }
  return id;
}

std::int64_t PageModel::total_bytes() const {
  std::int64_t sum = 0;
  for (const auto& r : resources_) sum += r.base_size;
  return sum;
}

std::int64_t PageModel::processable_bytes() const {
  std::int64_t sum = 0;
  for (const auto& r : resources_) {
    if (is_processable(r.type)) sum += r.base_size;
  }
  return sum;
}

std::vector<std::uint32_t> PageModel::hintable_descendants(
    std::uint32_t doc_id) const {
  // Preorder walk along the processing-order links, so `out` is the order
  // the client will process the resources (Table 1 requirement). Every
  // descendant's id is above the document's, which bounds `out`.
  std::vector<std::uint32_t> out;
  out.reserve(resources_.size() - doc_id - 1);
  std::uint32_t id = first_child_[doc_id];
  while (id != kNoResource) {
    out.push_back(id);
    // Descend, except below embedded HTML documents.
    if (resources_[id].type != ResourceType::Html &&
        first_child_[id] != kNoResource) {
      id = first_child_[id];
      continue;
    }
    // Otherwise the next sibling of the nearest ancestor inside the scope
    // that has one.
    while (next_sibling_[id] == kNoResource) {
      id = static_cast<std::uint32_t>(resources_[id].parent);
      if (id == doc_id) return out;
    }
    id = next_sibling_[id];
  }
  return out;
}

bool PageModel::in_post_onload_subtree(std::uint32_t id) const {
  for (std::int32_t cur = static_cast<std::int32_t>(id); cur >= 0;
       cur = resources_[static_cast<std::size_t>(cur)].parent) {
    if (resources_[static_cast<std::size_t>(cur)].post_onload) return true;
  }
  return false;
}

int PageModel::chain_depth(std::uint32_t id) const {
  int best = 0;
  for (std::uint32_t c : children_[id]) best = std::max(best, chain_depth(c));
  return best + 1;
}

}  // namespace vroom::web
