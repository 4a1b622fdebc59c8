#include "tcam/tcam.h"

#include <stdexcept>

#include "util/strfmt.h"

namespace ruletris::tcam {

Tcam::Tcam(size_t capacity) : slots_(capacity), occupancy_(capacity) {
  if (capacity >= TupleSpace::kNone) throw std::length_error("Tcam: capacity too large");
  index_.reserve_handles(capacity);
}

bool Tcam::is_free(size_t addr) const {
  if (addr >= slots_.size()) throw std::out_of_range("Tcam: bad address");
  return !occupied_at(addr);
}

std::optional<RuleId> Tcam::at(size_t addr) const {
  if (addr >= slots_.size()) throw std::out_of_range("Tcam: bad address");
  if (!occupied_at(addr)) return std::nullopt;
  return slots_[addr].id;
}

size_t Tcam::address_of(RuleId id) const {
  const uint32_t* addr = by_id_.find(id);
  if (addr == nullptr) throw std::out_of_range("Tcam: rule not installed");
  return *addr;
}

const Rule& Tcam::rule(RuleId id) const { return slots_[address_of(id)]; }

void Tcam::write(size_t addr, Rule rule) {
  if (!is_free(addr)) throw std::logic_error("Tcam::write: slot occupied");
  if (rule.id == flowspace::kInvalidRuleId) {
    throw std::invalid_argument("Tcam::write: invalid rule id");
  }
  const auto a = static_cast<uint32_t>(addr);
  if (!by_id_.insert(rule.id, a)) throw std::logic_error("Tcam::write: duplicate rule id");
  index_.insert(a, pack_match(rule.match), a);
  occupancy_.set_occupied(addr, true);
  slots_[addr] = std::move(rule);
  ++stats_.entry_writes;
  notify(Op::kWrite, addr);
}

void Tcam::move(size_t from, size_t to) {
  if (is_free(from)) throw std::logic_error("Tcam::move: source slot free");
  if (!is_free(to)) throw std::logic_error("Tcam::move: target slot occupied");
  const auto t = static_cast<uint32_t>(to);
  *by_id_.find(slots_[from].id) = t;
  const PackedMatch m = pack_match(slots_[from].match);
  // Insert before erase: a move up then never rescans its tuple for a max.
  index_.insert(t, m, t);
  index_.erase(static_cast<uint32_t>(from), m);
  occupancy_.set_occupied(from, false);
  occupancy_.set_occupied(to, true);
  slots_[to] = std::move(slots_[from]);
  slots_[from] = Rule{};
  ++stats_.entry_writes;
  ++stats_.moves;
  notify(Op::kMove, to);
}

void Tcam::erase(size_t addr) {
  if (is_free(addr)) return;
  take(addr);
}

Rule Tcam::take(size_t addr) {
  if (is_free(addr)) throw std::logic_error("Tcam::take: slot free");
  Rule out = std::move(slots_[addr]);
  slots_[addr] = Rule{};
  by_id_.erase(out.id);
  index_.erase(static_cast<uint32_t>(addr), pack_match(out.match));
  occupancy_.set_occupied(addr, false);
  ++stats_.erases;
  notify(Op::kErase, addr);
  return out;
}

void Tcam::modify_actions(RuleId id, flowspace::ActionList actions) {
  const size_t addr = address_of(id);
  slots_[addr].actions = std::move(actions);
  ++stats_.entry_writes;
  notify(Op::kModify, addr);
}

const Rule* Tcam::lookup(const Packet& p) const {
  const uint32_t addr = index_.find(pack_fields(p.fields));
  return addr == TupleSpace::kNone ? nullptr : &slots_[addr];
}

const Rule* Tcam::lookup_counted(const Packet& p) {
  const uint32_t addr = index_.find_counted(pack_fields(p.fields));
  return addr == TupleSpace::kNone ? nullptr : &slots_[addr];
}

std::vector<Rule> Tcam::entries_high_to_low() const {
  std::vector<Rule> out;
  out.reserve(by_id_.size());
  for (size_t i = slots_.size(); i-- > 0;) {
    if (occupied_at(i)) out.push_back(slots_[i]);
  }
  return out;
}

std::string Tcam::to_string() const {
  std::string out = util::strfmt("TCAM %zu/%zu (top first)\n", occupied(), capacity());
  for (size_t i = slots_.size(); i-- > 0;) {
    if (occupied_at(i)) {
      out += util::strfmt("  [%4zu] %s\n", i, slots_[i].to_string().c_str());
    }
  }
  return out;
}

}  // namespace ruletris::tcam
