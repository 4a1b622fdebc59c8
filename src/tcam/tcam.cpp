#include "tcam/tcam.h"

#include <stdexcept>

#include "util/strfmt.h"

namespace ruletris::tcam {

Tcam::Tcam(size_t capacity) : slots_(capacity), rows_(capacity, kFreeRow) {
  if (capacity == 0) throw std::invalid_argument("Tcam: zero capacity");
  // The id index will eventually hold up to `capacity` entries; sizing the
  // bucket array once keeps bulk installs and warm-boot restores rehash-free.
  by_id_.reserve(capacity);
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
  auto it = by_id_.find(id);
  if (it == by_id_.end()) throw std::out_of_range("Tcam: rule not installed");
  return it->second;
}

const Rule& Tcam::rule(RuleId id) const { return slots_[address_of(id)]; }

void Tcam::clear(size_t addr) {
  slots_[addr] = Rule{};
  rows_[addr] = kFreeRow;
}

void Tcam::write(size_t addr, Rule rule) {
  if (!is_free(addr)) throw std::logic_error("Tcam::write: slot occupied");
  if (rule.id == flowspace::kInvalidRuleId) {
    throw std::invalid_argument("Tcam::write: invalid rule id");
  }
  if (by_id_.count(rule.id)) throw std::logic_error("Tcam::write: duplicate rule id");
  by_id_[rule.id] = addr;
  rows_[addr] = pack_match(rule.match);
  slots_[addr] = std::move(rule);
  ++stats_.entry_writes;
  notify(Op::kWrite, addr);
}

void Tcam::move(size_t from, size_t to) {
  if (is_free(from)) throw std::logic_error("Tcam::move: source slot free");
  if (!is_free(to)) throw std::logic_error("Tcam::move: target slot occupied");
  by_id_[slots_[from].id] = to;
  slots_[to] = std::move(slots_[from]);
  rows_[to] = rows_[from];
  clear(from);
  ++stats_.entry_writes;
  ++stats_.moves;
  notify(Op::kMove, to);
}

void Tcam::erase(size_t addr) {
  if (is_free(addr)) return;
  by_id_.erase(slots_[addr].id);
  clear(addr);
  ++stats_.erases;
  notify(Op::kErase, addr);
}

Rule Tcam::take(size_t addr) {
  if (is_free(addr)) throw std::logic_error("Tcam::take: slot free");
  Rule out = std::move(slots_[addr]);
  by_id_.erase(out.id);
  clear(addr);
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
  const PackedKey key = pack_fields(p.fields);
  const PackedMatch* rows = rows_.data();
  auto differs = [&key, rows](size_t i) {
    return ((key[0] ^ rows[i].value[0]) & rows[i].mask[0]) |
           ((key[1] ^ rows[i].value[1]) & rows[i].mask[1]);
  };
  for (size_t i = rows_.size(); i-- > 0;) {
    if (differs(i) == 0 && occupied_at(i)) return &slots_[i];
  }
  return nullptr;
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
