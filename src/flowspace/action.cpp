#include "flowspace/action.h"

#include <algorithm>

#include "util/strfmt.h"

namespace ruletris::flowspace {

using util::strfmt;

std::string Action::to_string() const {
  switch (type) {
    case ActionType::kForward: return strfmt("fwd(%u)", arg);
    case ActionType::kDrop: return "drop";
    case ActionType::kToController: return "to_controller";
    case ActionType::kToSoftware: return "to_software";
    case ActionType::kCount: return strfmt("count(%u)", arg);
    case ActionType::kSetField:
      if (field == FieldId::kSrcIp || field == FieldId::kDstIp) {
        return strfmt("set(%s=%s)", field_name(field), ip_to_string(arg).c_str());
      }
      return strfmt("set(%s=%u)", field_name(field), arg);
  }
  return "?";
}

ActionList::ActionList(std::initializer_list<Action> actions)
    : ActionList(std::span<const Action>(actions.begin(), actions.size())) {}

ActionList::ActionList(std::span<const Action> actions) {
  assign(actions);
  canonicalize();
}

void ActionList::reset(size_t n) {
  if (n > kInline) {
    heap_ = std::make_unique<Action[]>(n);
  } else {
    heap_.reset();
  }
  size_ = static_cast<uint32_t>(n);
}

void ActionList::assign(std::span<const Action> actions) {
  reset(actions.size());
  std::copy(actions.begin(), actions.end(), data());
}

void ActionList::take(ActionList& other) {
  size_ = other.size_;
  std::copy(other.inline_, other.inline_ + kInline, inline_);
  heap_ = std::move(other.heap_);
  other.size_ = 0;
}

void ActionList::shrink(size_t n) {
  if (size_ > kInline && n <= kInline) {
    std::copy(heap_.get(), heap_.get() + n, inline_);
    heap_.reset();
  }
  size_ = static_cast<uint32_t>(n);
}

void ActionList::canonicalize() {
  Action* first = data();
  std::sort(first, first + size_);
  shrink(static_cast<size_t>(std::unique(first, first + size_) - first));
}

void ActionList::add(const Action& a) {
  ActionList grown;
  grown.reset(size_ + 1);
  std::copy(data(), data() + size_, grown.data());
  grown.data()[size_] = a;
  grown.canonicalize();
  *this = std::move(grown);
}

bool ActionList::contains(ActionType t) const {
  return std::ranges::any_of(actions(), [t](const Action& a) { return a.type == t; });
}

std::vector<Action> ActionList::set_fields() const {
  std::vector<Action> out;
  for (const Action& a : actions()) {
    if (a.is_set_field()) out.push_back(a);
  }
  return out;
}

ActionList ActionList::parallel_union(const ActionList& a, const ActionList& b) {
  ActionList out;
  out.reset(a.size() + b.size());
  std::copy(b.data(), b.data() + b.size(),
            std::copy(a.data(), a.data() + a.size(), out.data()));
  out.canonicalize();
  return out;
}

ActionList ActionList::sequential_merge(const ActionList& left, const ActionList& right) {
  ActionList out;
  out.reset(left.size() + right.size());  // an upper bound; trimmed below
  Action* merged = out.data();
  size_t n = 0;
  // Left's rewrites survive unless the right rewrites the same field.
  for (const Action& a : left.actions()) {
    if (!a.is_set_field()) {
      if (a.type != ActionType::kForward) merged[n++] = a;  // terminals union;
      // a left Forward is consumed by feeding the packet to the right stage.
      continue;
    }
    const bool overridden = std::ranges::any_of(right.actions(), [&](const Action& b) {
      return b.is_set_field() && b.field == a.field;
    });
    if (!overridden) merged[n++] = a;
  }
  std::copy(right.data(), right.data() + right.size(), merged + n);
  out.shrink(n + right.size());
  out.canonicalize();
  return out;
}

Packet ActionList::apply_rewrites(const Packet& p) const {
  Packet out = p;
  for (const Action& a : actions()) {
    if (a.is_set_field()) out.set(a.field, a.arg);
  }
  return out;
}

TernaryMatch ActionList::apply_rewrites(const TernaryMatch& m) const {
  TernaryMatch out = m;
  for (const Action& a : actions()) {
    if (a.is_set_field()) out.set_exact(a.field, a.arg);
  }
  return out;
}

std::optional<TernaryMatch> ActionList::rewrite_preimage(const TernaryMatch& m) const {
  TernaryMatch out = m;
  for (const Action& a : actions()) {
    if (!a.is_set_field()) continue;
    const FieldTernary& ft = m.field(a.field);
    // After the rewrite the field equals a.arg; `m` accepts that iff its
    // constraint is compatible. If so, the original value is unconstrained.
    if (((a.arg ^ ft.value) & ft.mask) != 0) return std::nullopt;
    out.set_wildcard(a.field);
  }
  return out;
}

size_t ActionList::hash() const {
  uint64_t h = 0x9ae16a3b2f90404fULL;
  for (const Action& a : actions()) {
    h ^= (static_cast<uint64_t>(a.type) << 40) ^
         (static_cast<uint64_t>(a.field) << 32) ^ a.arg;
    h *= 0x100000001b3ULL;
  }
  return static_cast<size_t>(h);
}

std::string ActionList::to_string() const {
  if (empty()) return "[]";
  std::string out = "[";
  for (size_t i = 0; i < size_; ++i) {
    if (i) out += ", ";
    out += data()[i].to_string();
  }
  out += "]";
  return out;
}

}  // namespace ruletris::flowspace
