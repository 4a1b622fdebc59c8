#include "tcam/apply_journal.h"

#include <sstream>

namespace ruletris::tcam {

const char* to_string(ApplyJournal::OpKind kind) {
  switch (kind) {
    case ApplyJournal::OpKind::kWrite: return "write";
    case ApplyJournal::OpKind::kMove: return "move";
    case ApplyJournal::OpKind::kErase: return "erase";
    case ApplyJournal::OpKind::kAddVertex: return "add_vertex";
    case ApplyJournal::OpKind::kRemoveVertex: return "remove_vertex";
    case ApplyJournal::OpKind::kAddEdge: return "add_edge";
    case ApplyJournal::OpKind::kRemoveEdge: return "remove_edge";
  }
  return "?";
}

std::string to_string(const ApplyJournal& journal) {
  std::ostringstream out;
  out << "txn " << journal.txn_id() << (journal.open() ? " open" : " closed")
      << (journal.sealed() ? " sealed" : "") << ", " << journal.size()
      << " ops\n";
  for (const ApplyJournal::Op& op : journal.ops()) {
    out << "  " << to_string(op.kind);
    switch (op.kind) {
      case ApplyJournal::OpKind::kWrite:
        out << " rule " << op.u << " -> slot " << op.to;
        break;
      case ApplyJournal::OpKind::kMove:
        out << " slot " << op.from << " -> " << op.to;
        break;
      case ApplyJournal::OpKind::kErase:
        out << " slot " << op.from << " (rule " << op.u << ")";
        break;
      case ApplyJournal::OpKind::kAddVertex:
      case ApplyJournal::OpKind::kRemoveVertex:
        out << " " << op.u;
        break;
      case ApplyJournal::OpKind::kAddEdge:
      case ApplyJournal::OpKind::kRemoveEdge:
        out << " " << op.u << " -> " << op.v;
        break;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace ruletris::tcam
