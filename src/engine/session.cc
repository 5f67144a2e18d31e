#include "engine/session.h"

#include "engine/database.h"
#include "obs/trace.h"

namespace autoindex {

Session::Session(Database* db)
    : db_(db),
      id_(db->NextSessionId()),
      executor_(db->MakeSessionExecutor()) {}

Session::~Session() = default;

StatusOr<ExecResult> Session::Execute(const std::string& sql) {
  // Statement trace root for text entry points (a no-op when the network
  // layer already opened one for the request).
  obs::ScopedTrace trace("statement");
  obs::ScopedSpan parse_span("parse");
  StatusOr<Statement> stmt = ParseSql(sql);
  parse_span.End();
  if (!stmt.ok()) return stmt.status();
  return Execute(*stmt);
}

StatusOr<ExecResult> Session::Execute(const Statement& stmt) {
  StatusOr<ExecResult> result = db_->ExecuteOn(executor_.get(), stmt);
  if (result.ok()) {
    cumulative_stats_ += result->stats;
    ++statements_executed_;
  }
  return result;
}

}  // namespace autoindex
