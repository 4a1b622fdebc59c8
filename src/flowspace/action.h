// Rule actions and the action-set algebra used by modular composition.
//
// Parallel composition unions action sets; sequential composition threads a
// packet through the left rule's header rewrites before the right rule acts
// (Sec. IV-A). Both operations, plus the rewrite pre-image needed to compute
// sequential match composition, live here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "flowspace/field.h"
#include "flowspace/ternary.h"

namespace ruletris::flowspace {

enum class ActionType : uint8_t {
  kForward = 0,       // arg = output port
  kDrop = 1,
  kToController = 2,  // punt to the SDN controller
  kToSoftware = 3,    // CacheFlow cover-set punt to the software switch
  kCount = 4,         // monitoring: bump a flow counter (arg = counter id)
  kSetField = 5,      // rewrite `field` to `arg`
};

struct Action {
  ActionType type = ActionType::kDrop;
  FieldId field = FieldId::kInPort;  // meaningful for kSetField only
  uint32_t arg = 0;

  static Action forward(uint32_t port) { return {ActionType::kForward, FieldId::kInPort, port}; }
  static Action drop() { return {ActionType::kDrop, FieldId::kInPort, 0}; }
  static Action to_controller() { return {ActionType::kToController, FieldId::kInPort, 0}; }
  static Action to_software() { return {ActionType::kToSoftware, FieldId::kInPort, 0}; }
  static Action count(uint32_t counter) { return {ActionType::kCount, FieldId::kInPort, counter}; }
  static Action set_field(FieldId f, uint32_t v) { return {ActionType::kSetField, f, v}; }

  bool is_set_field() const { return type == ActionType::kSetField; }

  auto operator<=>(const Action&) const = default;

  std::string to_string() const;
};

static_assert(std::is_trivially_copyable_v<Action>,
              "ActionList copies actions as plain bytes");

/// A canonically ordered, duplicate-free set of actions. Canonical form
/// makes action-set equality (needed by floating-rule elimination and by
/// key-vertex handling) a plain element-wise compare.
///
/// Almost every rule carries one to three actions, and rules are copied on
/// every compile step, so up to kInline actions live inside the object and
/// only longer lists take a heap block (sized exactly).
class ActionList {
 public:
  static constexpr size_t kInline = 3;

  ActionList() = default;
  ActionList(std::initializer_list<Action> actions);
  explicit ActionList(std::span<const Action> actions);
  ActionList(const ActionList& other) { assign(other.actions()); }
  ActionList(ActionList&& other) noexcept { take(other); }
  ActionList& operator=(const ActionList& other) {
    if (this != &other) assign(other.actions());
    return *this;
  }
  ActionList& operator=(ActionList&& other) noexcept {
    if (this != &other) take(other);
    return *this;
  }
  ~ActionList() = default;

  std::span<const Action> actions() const { return {data(), size_}; }
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  void add(const Action& a);

  bool contains(ActionType t) const;

  /// The set-field rewrites contained in this list, in field order.
  std::vector<Action> set_fields() const;

  /// Parallel composition: union of the two sets (Sec. IV-A).
  static ActionList parallel_union(const ActionList& a, const ActionList& b);

  /// Sequential composition: left's rewrites applied first, right's rewrites
  /// override on the same field; all terminal actions are unioned
  /// (the paper's "union of actions" with rewrite-override semantics).
  static ActionList sequential_merge(const ActionList& left, const ActionList& right);

  /// Applies this list's set-field rewrites to a concrete packet.
  Packet apply_rewrites(const Packet& p) const;

  /// Applies this list's rewrites to a match: rewritten fields become exact.
  TernaryMatch apply_rewrites(const TernaryMatch& m) const;

  /// The pre-image of `m` under this list's rewrites: the set of headers
  /// that, after rewriting, land in `m`. nullopt when no header does (a
  /// rewrite conflicts with `m`'s constraint on that field).
  std::optional<TernaryMatch> rewrite_preimage(const TernaryMatch& m) const;

  bool operator==(const ActionList& other) const {
    return std::ranges::equal(actions(), other.actions());
  }

  size_t hash() const;
  std::string to_string() const;

 private:
  const Action* data() const { return size_ <= kInline ? inline_ : heap_.get(); }
  Action* data() { return size_ <= kInline ? inline_ : heap_.get(); }

  /// Sets the size to `n`, inline or in a fresh heap block, with
  /// unspecified contents: the previous actions are lost.
  void reset(size_t n);
  void assign(std::span<const Action> actions);
  void take(ActionList& other);
  /// Keeps the first `n` actions, moving them back inline when they fit.
  void shrink(size_t n);
  /// Sorts and dedupes in place, moving back inline when it shrinks to fit.
  void canonicalize();

  uint32_t size_ = 0;
  Action inline_[kInline];
  std::unique_ptr<Action[]> heap_;  // size_ actions when size_ > kInline
};

}  // namespace ruletris::flowspace
