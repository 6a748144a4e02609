#ifndef WSQ_SERVER_DBMS_H_
#define WSQ_SERVER_DBMS_H_

#include <map>
#include <memory>
#include <string>

#include "wsq/common/status.h"
#include "wsq/relation/query.h"
#include "wsq/relation/table.h"

namespace wsq {

/// The MySQL stand-in behind the data service: a catalog of in-memory
/// tables plus cursor-based query execution. Tables are registered
/// before any query runs; after that the catalog and its tables are
/// read-only, so lookups and cursors on different threads never
/// conflict. The concurrency *effects* (CPU sharing, buffer sharing)
/// are modeled by LoadModel.
class Dbms {
 public:
  Dbms() = default;

  Dbms(const Dbms&) = delete;
  Dbms& operator=(const Dbms&) = delete;

  /// Registers a table; kInvalidArgument if a table with the same name
  /// already exists or the pointer is null. The table must not change
  /// afterwards: cursors hand out views of its rows (QueryCursor::
  /// FetchBlock). Not safe concurrently with any other call.
  Status RegisterTable(std::shared_ptr<Table> table);

  /// Looks up a table by name.
  Result<std::shared_ptr<Table>> GetTable(const std::string& name) const;

  /// Opens a pull-mode cursor for `query`; the Dbms (and its tables)
  /// must outlive the cursor.
  Result<std::unique_ptr<QueryCursor>> OpenCursor(
      const ScanProjectQuery& query) const;

  size_t num_tables() const { return tables_.size(); }

 private:
  std::map<std::string, std::shared_ptr<Table>> tables_;
};

}  // namespace wsq

#endif  // WSQ_SERVER_DBMS_H_
